import dataclasses
import math

import numpy as np
import pytest

from wrsim.geometry import Window
from wrsim.distributions import DiracRadius, UniformRadius
from wrsim.sampling import (GibbsParams, WidomRowlinsonChain,
                            sample_multitype_poisson)
from wrsim.analysis import (EntropyBoundInputs, CertificateError,
                            EstimationError, phi_m, psi_eval,
                            mono_entropy_lower_bound, entropy_upper_estimate,
                            small_z_threshold, domination_test)

WORKED = EntropyBoundInputs(alpha=(0.5, 0.5), beta=0.95, gamma=0.1,
                            epsilon=0.2, m_side=4.0, d=2, phi=(0.9, 0.9))


class TestPhi:
    def test_dirac_no_fit(self):
        value, se = phi_m(DiracRadius(2.0), 4.0, 2)
        assert value == 0.0 and se == 0.0

    def test_dirac_quarter(self):
        value, se = phi_m(DiracRadius(1.0), 4.0, 2)
        assert value == 0.25 and se == 0.0

    def test_monte_carlo_matches_exact(self):
        rng = np.random.default_rng(0)
        value, se = phi_m(DiracRadius(1.0), 4.0, 2, probes=40000, rng=rng,
                          method="mc")
        assert abs(value - 0.25) < 3 * se

    def test_uniform_law_against_quadrature(self):
        # closed form for any law: E[((m - 2r)/m)^d ; 2r <= m]
        law = UniformRadius(0.0, 1.0)
        m, d = 3.0, 2
        exact = sum(((m - 2 * r) / m) ** d for r in np.linspace(0.0005, 0.9995, 1000)) / 1000
        value, se = phi_m(law, m, d, probes=200000, rng=np.random.default_rng(1))
        assert abs(value - exact) < 4 * se + 1e-3

    @pytest.mark.parametrize("method", ["auto", "mc"])
    @pytest.mark.parametrize("m_side, d", [
        (4.0, -1), (4.0, 0), (4.0, 2.0), (4.0, True), (4.0, math.nan),
        (math.nan, 2), (math.inf, 2), (-math.inf, 2), (0.0, 2)])
    def test_bad_tile_geometry_is_refused(self, m_side, d, method):
        # a "< 0"-style guard lets these through to a wrong probability
        # (1.25 at d = -1, (0, 0) at m_side = inf) instead of an error
        with pytest.raises(ValueError, match="m_side|dimension"):
            phi_m(DiracRadius(0.1), m_side, d, probes=10,
                  rng=np.random.default_rng(0), method=method)

    @pytest.mark.parametrize("probes", [0, -5])
    def test_probes_below_one_is_refused(self, probes):
        with pytest.raises(ValueError, match="probes must be >= 1"):
            phi_m(UniformRadius(0.0, 1.0), 3.0, 2, probes=probes,
                  rng=np.random.default_rng(0), method="mc")


class TestPsi:
    def test_zero_at_origin(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = int(rng.integers(2, 5))
            alpha = rng.random(q) + 0.1
            alpha /= alpha.sum()
            inputs = EntropyBoundInputs.with_default_margins(
                tuple(alpha), float(rng.random() * 3 + 1),
                int(rng.integers(1, 4)), tuple(rng.random(q)))
            value, _ = psi_eval(inputs, 0.0)
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_worked_derivative_at_zero(self):
        value, deriv = psi_eval(WORKED, 0.0)
        assert value == 0.0
        assert deriv == pytest.approx(-0.355, abs=1e-12)

    def test_derivative_at_zero_formula(self):
        # log argument collapses to 1, so Psi'(0) = max a - beta sum a_i phi_i
        inputs = EntropyBoundInputs.with_default_margins(
            (0.3, 0.7), 2.0, 2, (0.6, 0.8))
        _, deriv = psi_eval(inputs, 0.0)
        expected = 0.7 - inputs.beta * (0.3 * 0.6 + 0.7 * 0.8)
        assert deriv == pytest.approx(expected, abs=1e-12)

    def test_derivative_matches_finite_differences(self):
        # central differences; the formula extends smoothly through 0 so the
        # z = 0 grid point can difference symmetrically too
        h = 1e-6
        for z in np.linspace(0.0, 5.0, 20):
            _, deriv = psi_eval(WORKED, z)
            up, _ = psi_eval(WORKED, z + h)
            down, _ = psi_eval(WORKED, z - h)
            fd = (up - down) / (2 * h)
            assert abs(deriv - fd) < 1e-6

    def test_large_z_stability(self):
        value, deriv = psi_eval(WORKED, 1e4)
        assert math.isfinite(value) and math.isfinite(deriv)
        assert value > 0


class TestMonoBound:
    def test_symmetric(self):
        assert mono_entropy_lower_bound(2.0, (0.5, 0.5)) == 1.0

    def test_degenerate(self):
        assert mono_entropy_lower_bound(5.0, (1.0, 0.0)) == 0.0

    def test_three_colors(self):
        assert mono_entropy_lower_bound(3.0, (0.2, 0.3, 0.5)) == pytest.approx(1.5)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        alpha = rng.random(4)
        alpha /= alpha.sum()
        base = mono_entropy_lower_bound(2.5, alpha)
        for _ in range(5):
            assert mono_entropy_lower_bound(2.5, rng.permutation(alpha)) == base

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            mono_entropy_lower_bound(1.0, (0.5, 0.6))


class TestEntropyEstimate:
    def test_q1_is_zero(self):
        params = GibbsParams.symmetric(1, 1.0, DiracRadius(0.5), Window.cube(2.0, 2))
        est = entropy_upper_estimate(params, 2000, np.random.default_rng(4))
        assert est.estimate == 0.0 and est.acceptance == 1.0

    def test_small_z_near_zero(self):
        params = GibbsParams.symmetric(2, 0.01, DiracRadius(0.5), Window.cube(2.0, 2))
        est = entropy_upper_estimate(params, 20000, np.random.default_rng(5))
        assert est.estimate < 0.01

    def test_below_activity_sum(self):
        params = GibbsParams.symmetric(2, 0.5, DiracRadius(0.5), Window.cube(3.0, 2))
        est = entropy_upper_estimate(params, 40000, np.random.default_rng(6))
        assert est.estimate <= 1.0 + 3 * est.stderr

    def test_consistent_across_seeds(self):
        params = GibbsParams.symmetric(2, 0.5, DiracRadius(0.5), Window.cube(3.0, 2))
        a = entropy_upper_estimate(params, 40000, np.random.default_rng(7))
        b = entropy_upper_estimate(params, 40000, np.random.default_rng(8))
        assert abs(a.estimate - b.estimate) < 3 * math.hypot(a.stderr, b.stderr)

    def test_zero_acceptance_raises(self):
        # every cross-colour pair overlaps and both colours are essentially
        # never empty, so nothing is authorized
        params = GibbsParams.symmetric(2, 30.0, DiracRadius(10.0), Window.cube(1.0, 2))
        with pytest.raises(EstimationError):
            entropy_upper_estimate(params, 300, np.random.default_rng(9))


class TestThreshold:
    def test_worked_inputs_certify(self):
        cert = small_z_threshold(WORKED)
        assert cert.z_star > 0
        assert cert.margin > 0
        value, _ = psi_eval(WORKED, cert.z_star)
        assert abs(value) < 1e-6

    def test_certified_region_is_consistent(self):
        cert = small_z_threshold(WORKED)
        for z in np.linspace(0.05, 0.95, 10) * cert.z_star:
            psi, _ = psi_eval(WORKED, z)
            upper = mono_entropy_lower_bound(z, WORKED.alpha) + psi
            assert upper < mono_entropy_lower_bound(z, WORKED.alpha)

    @pytest.mark.parametrize("field, value", [
        ("alpha", (math.nan, 0.5)), ("alpha", (0.5, math.nan)),
        ("m_side", math.nan), ("m_side", math.inf)])
    def test_non_finite_inputs_refused(self, field, value):
        with pytest.raises(ValueError):
            dataclasses.replace(WORKED, **{field: value})

    @pytest.mark.parametrize("m_side, d", [
        (4.0, 2.5), (4.0, True), (4.0, 0), (4.0, math.nan),
        (1e200, 2), (1e200, np.int64(2)),
        pytest.param(10 ** 400, 1, id="int-10**400-1"), (1e-200, 2)])
    def test_bad_tile_dimension_or_volume_refused(self, m_side, d):
        # a tile volume that overflows or underflows made every run row fail
        # (exit 3); a non-integer or boolean d used to pass
        with pytest.raises(ValueError, match="dimension|tile geometry"):
            dataclasses.replace(WORKED, m_side=m_side, d=d)
        with pytest.raises(ValueError, match="dimension|tile geometry"):
            EntropyBoundInputs.with_default_margins((0.5, 0.5), m_side, d,
                                                    (0.9, 0.9))

    @pytest.mark.parametrize("m_side, d", [(1e100, 3), (4.0, np.int64(2))])
    def test_large_finite_tile_accepted(self, m_side, d):
        inputs = dataclasses.replace(WORKED, m_side=m_side, d=d)
        assert inputs.tile_volume == m_side ** d

    def test_degenerate_alpha_fails(self):
        inputs = EntropyBoundInputs(alpha=(1.0, 0.0), beta=0.95,
                                    gamma=0.1, epsilon=0.2, m_side=4.0, d=2,
                                    phi=(0.9, 0.9))
        with pytest.raises(CertificateError):
            small_z_threshold(inputs)

    def test_threshold_monotone_in_phi(self):
        base = dict(alpha=(0.5, 0.5), beta=0.95, gamma=0.1,
                    epsilon=0.2, m_side=4.0, d=2)
        low = small_z_threshold(EntropyBoundInputs(phi=(0.85, 0.85), **base))
        high = small_z_threshold(EntropyBoundInputs(phi=(0.95, 0.95), **base))
        assert high.z_star > low.z_star

    def test_default_margins_satisfy_chain(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            q = int(rng.integers(2, 5))
            alpha = rng.random(q) + 0.05
            alpha /= alpha.sum()
            inputs = EntropyBoundInputs.with_default_margins(
                tuple(alpha), 3.0, 2, tuple(np.full(q, 0.9)))
            inputs.validate_margins()


class TestDomination:
    def test_identical_streams_pass(self):
        rng = np.random.default_rng(11)
        x = rng.poisson(5.0, 500).astype(float)
        report = domination_test({"total": x}, {"total": x.copy()})
        assert report.passed
        assert abs(report.rows[0].z_score) < 1e-9

    def test_inflated_stream_fails(self):
        rng = np.random.default_rng(12)
        base = rng.poisson(5.0, 500).astype(float)
        report = domination_test({"total": base + 2.0}, {"total": base})
        assert not report.passed

    def test_hardcore_strictly_below_poisson(self):
        # rejection is infeasible at these densities; sample via the chain
        params = GibbsParams.symmetric(2, 1.0, DiracRadius(0.5), Window.cube(4.0, 2))
        chain = WidomRowlinsonChain(params, np.random.default_rng(13))
        chain.run(300)
        totals = []
        for _ in range(400):
            chain.run(3)
            totals.append(chain.total_count)
        rng = np.random.default_rng(14)
        poisson = [sample_multitype_poisson(params, rng) for _ in range(400)]
        report = domination_test(
            {"total": totals},
            {"total": [mc.total_count() for mc in poisson]})
        assert report.passed
        assert report.rows[0].z_score < 0

    def test_requires_min_samples(self):
        with pytest.raises(ValueError):
            domination_test({"total": [1.0] * 10}, {"total": [1.0] * 10})

    def test_requires_matching_observables(self):
        with pytest.raises(ValueError):
            domination_test({"a": [1.0] * 100}, {"b": [1.0] * 100})
