import math

import numpy as np
import pytest

from helpers import interval_bfs_oracle
from wrsim.geometry import Configuration
from wrsim.distributions import DiracRadius, UniformRadius, ParetoRadius
from wrsim.components import connected_components
from wrsim.sampling import sample_poisson
from wrsim.analysis import EstimationError
from wrsim.slab import (SlabParams, transformed_radius, n_cc_right,
                        merged_intervals, coverage_gap, right_covered,
                        reaches_right_edge, sample_slab, slab_ncc_samples,
                        estimate_p, p_from_ncc, geometric_moment,
                        tilted_moment_diagnostic, segment_model_1d,
                        crcm_ncc_moment_check)


def params_1d(n=10.0, z=1.0, law=None):
    return SlabParams(n=n, k=1.0, d=1, z=z, law=law or DiracRadius(1.0))


@pytest.mark.parametrize("field", ["n", "k", "z"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_slab_params_refuse_non_finite(field, value):
    args = {"n": 10.0, "k": 1.0, "d": 2, "z": 1.0, "law": DiracRadius(1.0)}
    with pytest.raises(ValueError, match="finite"):
        SlabParams(**{**args, field: value})


def segments_config(pairs):
    """1D configuration from (start, length) pairs."""
    starts = np.array([[s] for s, _ in pairs], dtype=float)
    lengths = np.array([l for _, l in pairs], dtype=float)
    return Configuration(starts, lengths)




class TestTransformedRadius:
    def test_d1_identity(self):
        assert transformed_radius(3.7, 5.0, 1) == 3.7

    def test_at_threshold(self):
        assert transformed_radius(1.0, 1.0, 2) == 0.0

    def test_d3(self):
        assert transformed_radius(math.sqrt(3.0), 1.0, 3) == pytest.approx(1.0)

    @pytest.mark.parametrize("k, d", [
        (math.nan, 2), (math.nan, 1), (-1.0, 2), (1.0, 0), (1.0, 1.5),
        (1.0, math.nan), (1.0, True)])
    def test_bad_k_or_dimension_refused(self, k, d):
        # NaN passes a "k < 0" test and returned NaN lengths
        with pytest.raises(ValueError, match="k must|dimension"):
            transformed_radius(np.array([0.5, 2.0]), k, d)

    def test_vectorized(self):
        r = np.array([0.5, 1.0, 2.0])
        out = transformed_radius(r, 1.0, 2)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(math.sqrt(3.0))


class TestNccRight:
    def test_single_ball(self):
        assert n_cc_right(segments_config([(0.0, 1.0)]), params_1d()) == 1

    def test_disjoint_and_overlapping(self):
        assert n_cc_right(segments_config([(0.0, 1.0), (2.0, 1.0)]), params_1d()) == 2
        assert n_cc_right(segments_config([(0.0, 1.5), (1.0, 2.0)]), params_1d()) == 1

    def test_tangent_segments_merge(self):
        assert n_cc_right(segments_config([(0.0, 1.0), (1.0, 1.0)]), params_1d()) == 1

    def test_empty(self):
        assert n_cc_right(Configuration.empty(1), params_1d()) == 0

    def test_matches_interval_oracle(self):
        rng = np.random.default_rng(0)
        p = params_1d(n=20.0)
        for _ in range(1000):
            n = int(rng.integers(0, 40))
            starts = rng.random(n) * 20.0
            lengths = rng.exponential(1.0, n) * (rng.random(n) < 0.8)
            cfg = Configuration(starts[:, None], lengths)
            assert n_cc_right(cfg, p) == interval_bfs_oracle(starts, lengths)

    def test_ncc_at_most_ncc_right_on_slabs(self):
        # the rightward boxes are subsets of the balls on the same index set,
        # so their union can only be more fragmented
        sp = SlabParams(n=20.0, k=0.5, d=2, z=2.0, law=ParetoRadius(0.9, 0.3),
                        q=2, q_bar=2.5)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            cfg = sample_slab(sp, rng)
            assert connected_components(cfg).n_cc <= n_cc_right(cfg, sp)

    def test_isolated_right_segment_adds_one(self):
        rng = np.random.default_rng(2)
        p = params_1d(n=100.0)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            starts = rng.random(n) * 10.0
            lengths = rng.exponential(1.0, n)
            cfg = Configuration(starts[:, None], lengths)
            base = n_cc_right(cfg, p)
            far = (starts + lengths).max() + 1.0
            cfg2 = Configuration(np.concatenate([starts, [far]])[:, None],
                                 np.concatenate([lengths, [0.5]]))
            assert n_cc_right(cfg2, p) == base + 1


class TestRightCovered:
    def test_empty_not_covered(self):
        assert not right_covered(Configuration.empty(1), 0.0, params_1d())

    def test_full_segment_covers(self):
        cfg = segments_config([(0.0, 10.0)])
        p = params_1d(n=10.0)
        for y in (0.0, 3.0, 9.9):
            assert right_covered(cfg, y, p)

    def test_gap_reported(self):
        cfg = segments_config([(0.0, 2.0), (5.0, 10.0)])
        p = params_1d(n=10.0)
        assert not right_covered(cfg, 1.0, p)
        assert coverage_gap(cfg, 1.0, p) == pytest.approx(2.0)
        assert right_covered(cfg, 5.5, p)

    def test_y_out_of_range(self):
        with pytest.raises(ValueError):
            right_covered(Configuration.empty(1), 11.0, params_1d(n=10.0))

    def test_merged_intervals(self):
        cfg = segments_config([(0.0, 1.0), (0.5, 1.0), (4.0, 0.5)])
        out = merged_intervals(cfg, params_1d())
        assert np.allclose(out, [[0.0, 1.5], [4.0, 4.5]])

    def test_reaches_right_edge(self):
        p = params_1d(n=10.0)
        assert reaches_right_edge(segments_config([(9.0, 2.0)]), p)
        assert not reaches_right_edge(segments_config([(0.0, 2.0)]), p)
        assert reaches_right_edge(segments_config([(0.0, 6.0)]), p, edge=5.0)


class TestEstimateP:
    def test_forced_single_component(self):
        sp = SlabParams(n=5.0, k=1.0, d=1, z=2.0, law=DiracRadius(10.0))
        est = estimate_p(sp, 400, np.random.default_rng(3))
        assert est.p_hat > 0.99

    def test_cross_estimators_agree_in_renewal_regime(self):
        sp = SlabParams(n=40.0, k=0.5, d=2, z=4.0, law=ParetoRadius(0.7, 0.3),
                        q=2, q_bar=2.5)
        est = estimate_p(sp, 4000, np.random.default_rng(4))
        se = math.hypot(est.stderr, est.inverse_mean_stderr)
        assert abs(est.p_hat - est.inverse_mean) < 3 * se

    def test_monotone_in_activity(self):
        law = ParetoRadius(0.7, 0.3)
        rng = np.random.default_rng(5)
        estimates = [estimate_p(SlabParams(n=40.0, k=0.5, d=2, z=z, law=law,
                                           q=2, q_bar=2.5), 1500, rng)
                     for z in (4.0, 6.0, 9.0)]
        for lo, hi in zip(estimates, estimates[1:]):
            se = math.hypot(lo.stderr, hi.stderr)
            assert hi.p_hat >= lo.p_hat - 3 * se

    def test_all_empty_raises(self):
        sp = SlabParams(n=1.0, k=0.5, d=2, z=1e-9, law=DiracRadius(1.0))
        with pytest.raises(EstimationError):
            estimate_p(sp, 200, np.random.default_rng(6))

    def test_replica_minimum(self):
        sp = params_1d()
        with pytest.raises(ValueError):
            estimate_p(sp, 50, np.random.default_rng(7))


class TestGeometricMoment:
    def test_p_one(self):
        assert geometric_moment(2.0, 1.0) == 2.0

    def test_s_one(self):
        for p in (0.1, 0.5, 1.0):
            assert geometric_moment(1.0, p) == pytest.approx(1.0)

    def test_worked_value(self):
        assert geometric_moment(2.0, 0.75) == pytest.approx(3.0)

    @pytest.mark.parametrize("s_bar", [math.nan, 0.5, -math.inf])
    def test_bad_s_bar_refused(self, s_bar):
        # NaN passes an "s_bar < 1" test and returned NaN
        with pytest.raises(ValueError, match="s_bar"):
            geometric_moment(s_bar, 0.5)

    def test_against_partial_sums(self):
        for s_bar in (1.0, 1.5, 2.0, 3.0):
            for p in np.linspace(0.05, 1.0, 12):
                closed = geometric_moment(s_bar, p)
                partial = sum(s_bar ** a * p * (1 - p) ** (a - 1)
                              for a in range(1, 201))
                if p > 1.0 - 1.0 / s_bar:
                    tail_ratio = s_bar * (1 - p)
                    if tail_ratio < 0.9:  # partial sum has actually converged
                        assert closed == pytest.approx(partial, abs=1e-9, rel=1e-9)
                else:
                    assert closed == math.inf

    def test_divergence_flagged_empirically(self):
        rng = np.random.default_rng(8)
        n = rng.geometric(0.15, size=4000)  # s(1-p) = 1.7 > 1: divergent
        _, diverging = tilted_moment_diagnostic(n, 2.0)
        assert diverging
        n = rng.geometric(0.8, size=4000)   # s(1-p) = 0.4 < 1: finite
        val, diverging = tilted_moment_diagnostic(n, 2.0)
        assert not diverging
        assert val == pytest.approx(geometric_moment(2.0, 0.8), rel=0.1)


class TestSegmentModel:
    def test_endpoint_count_mean(self):
        rng = np.random.default_rng(9)
        counts = [len(segment_model_1d(2.0, DiracRadius(1.0), 10.0, rng))
                  for _ in range(10000)]
        mean = 20.0
        assert abs(np.mean(counts) - mean) < 3 * math.sqrt(mean / 10000)

    def test_zero_length_segments_are_singletons(self):
        rng = np.random.default_rng(10)
        cfg = segment_model_1d(3.0, DiracRadius(0.0), 10.0, rng)
        assert n_cc_right(cfg, params_1d()) == len(cfg)

    def test_matches_slab_shadow_distribution(self):
        # with the projected rate z k^(d-1) and the transformed length law,
        # the 1D model reproduces the slab's rightward component counts
        sp = SlabParams(n=30.0, k=0.5, d=2, z=3.0, law=ParetoRadius(0.8, 0.4),
                        q=2, q_bar=2.5)
        rng = np.random.default_rng(11)
        slab_counts = slab_ncc_samples(sp, 3000, rng)
        tilde = sp.law_tilde()
        seg_params = params_1d(n=sp.n)
        seg_counts = np.array([
            n_cc_right(segment_model_1d(sp.projected_rate, tilde, sp.n, rng),
                       seg_params)
            for _ in range(3000)])
        se = math.hypot(slab_counts.std() / math.sqrt(len(slab_counts)),
                        seg_counts.std() / math.sqrt(len(seg_counts)))
        assert abs(slab_counts.mean() - seg_counts.mean()) < 3 * se

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            segment_model_1d(0.0, DiracRadius(1.0), 10.0, np.random.default_rng(0))


class TestMomentCheck:
    def test_poisson_growth_fails(self):
        # q = 1 at moderate activity: mean N_cc grows with the volume
        sp = SlabParams(n=4.0, k=1.0, d=2, z=1.5, law=DiracRadius(0.3), q=1.0,
                        q_bar=2.0)
        report = crcm_ncc_moment_check(sp, (4.0, 8.0, 16.0), sweeps=60,
                                       replicas=30, rng=np.random.default_rng(12))
        assert not report.passed
        assert report.slope > 0

    def test_needs_three_lengths(self):
        sp = params_1d()
        with pytest.raises(ValueError):
            crcm_ncc_moment_check(sp, (4.0, 8.0), 10, 10, np.random.default_rng(13))

    def test_degenerate_replicas_raise(self):
        sp = params_1d()
        with pytest.raises(EstimationError):
            crcm_ncc_moment_check(sp, (4.0, 8.0, 16.0), 10, 0,
                                  np.random.default_rng(14))


class TestSlabParams:
    def test_window_shape(self):
        sp = SlabParams(n=12.0, k=0.5, d=3, z=1.0, law=DiracRadius(1.0))
        w = sp.window
        assert np.allclose(w.lower, [0, 0, 0])
        assert np.allclose(w.upper, [12.0, 0.5, 0.5])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_window_built_once(self, d):
        sp = SlabParams(n=40, k=0.5, d=d, z=1.0, law=DiracRadius(1.0))
        assert sp.window is sp.window
        assert np.array_equal(sp.window.upper, [40.0] + [0.5] * (d - 1))
        assert sp.window.volume == 40.0 * 0.5 ** (d - 1)
        # not a dataclass field: equality and repr are as before
        assert sp == SlabParams(n=40, k=0.5, d=d, z=1.0, law=DiracRadius(1.0))
        assert "window" not in repr(sp)

    @pytest.mark.parametrize("n, k, d", [
        (1e200, 1e200, 2), (1e300, 1e10, 2), (1.0, 1e110, 4)])
    def test_overflowing_volume_refused(self, n, k, d):
        # finite n and k whose slab volume n k^(d-1) overflows: refused when
        # built, not by every replica's Poisson draw
        with pytest.raises(ValueError, match="finite"):
            SlabParams(n=n, k=k, d=d, z=1.0, law=DiracRadius(1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            SlabParams(n=0.0, k=1.0, d=2, z=1.0, law=DiracRadius(1.0))
        with pytest.raises(ValueError):
            SlabParams(n=1.0, k=1.0, d=2, z=1.0, law=DiracRadius(1.0),
                       q=2.0, q_bar=2.0)

    def test_projected_rate(self):
        sp = SlabParams(n=10.0, k=0.5, d=3, z=4.0, law=DiracRadius(1.0))
        assert sp.projected_rate == pytest.approx(1.0)
