import math

import numpy as np
import pytest
from scipy import integrate, stats

from helpers import (ks_distance_to_cdf, moment_quadrature_oracle,
                     coverage_quadrature_oracle)
from wrsim.distributions import (DiracRadius, UniformRadius, ExponentialRadius,
                                 ParetoRadius, AtomMixtureRadius,
                                 TransformedRadius, classify_integrability,
                                 check_coverage_condition, q_tilde_transform,
                                 condition_summary, law_from_spec)

ALL_LAWS = [
    DiracRadius(2.5),
    UniformRadius(0.0, 1.0),
    ExponentialRadius(2.0),
    ParetoRadius(2.0, 1.0),
    AtomMixtureRadius(0.3, UniformRadius(0.0, 1.0)),
]




class TestSampling:
    def test_dirac_constant(self):
        rng = np.random.default_rng(0)
        law = DiracRadius(2.5)
        assert law.sample(rng, 1)[0] == 2.5
        assert np.all(law.sample(rng, 100) == 2.5)

    def test_uniform_mean(self):
        rng = np.random.default_rng(1)
        draws = UniformRadius(0.0, 1.0).sample(rng, 100000)
        assert abs(draws.mean() - 0.5) < 0.005

    def test_pareto_survival_at_two(self):
        rng = np.random.default_rng(2)
        draws = ParetoRadius(2.0, 1.0).sample(rng, 100000)
        # survival (2/1)^-2 = 0.25
        assert abs((draws > 2.0).mean() - 0.25) < 0.01

    @pytest.mark.parametrize("law", ALL_LAWS + [
        ExponentialRadius(0.5),
        q_tilde_transform(ParetoRadius(0.8, 0.5), 0.5, 3),
        AtomMixtureRadius(0.4, AtomMixtureRadius(
            0.2, q_tilde_transform(UniformRadius(0.2, 1.5), 0.5, 2)))],
        ids=lambda l: l.kind)
    @pytest.mark.parametrize("size", [0, 5, (2, 3)], ids=str)
    def test_draw_contract(self, law, size):
        # every law, nested ones too: a fresh, writable, nonnegative float64
        # array of shape size, which the caller may overwrite
        rng = np.random.default_rng(3)
        first = law.sample(rng, size)
        second = law.sample(rng, size)
        for out in (first, second):
            assert out.dtype == np.float64
            assert out.shape == np.empty(size).shape
            assert out.flags.writeable
            assert np.all(out >= 0.0)
        assert not np.shares_memory(first, second)
        kept = second.copy()
        first.fill(-1.0)
        assert np.array_equal(second, kept)

    def test_determinism(self):
        for law in ALL_LAWS:
            a = law.sample(np.random.default_rng(42), 50)
            b = law.sample(np.random.default_rng(42), 50)
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind)
    def test_sampling_matches_cdf(self, law):
        # median KS distance over 20 seeds stays under the 1% critical value
        crit = 1.628 / math.sqrt(100000)
        dists = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sample = np.asarray(law.sample(rng, 100000))
            dists.append(ks_distance_to_cdf(sample, law.cdf))
        assert np.median(dists) < crit




class TestIntegrability:
    def test_dirac_d3(self):
        assert classify_integrability(DiracRadius(1.0), 3).integrable

    def test_pareto_below_dimension(self):
        rep = classify_integrability(ParetoRadius(1.5, 1.0), 2)
        assert not rep.integrable and rep.moment == math.inf

    def test_pareto_moment_matches_quadrature(self):
        rep = classify_integrability(ParetoRadius(3.5, 1.0), 3)
        assert rep.integrable
        oracle, _ = integrate.quad(
            lambda r: r ** 3 * 3.5 * r ** (-4.5), 1.0, math.inf)
        assert abs(rep.moment - oracle) / oracle < 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("law", ALL_LAWS + [ParetoRadius(0.5, 1.0),
                                                ParetoRadius(3.5, 1.0)],
                             ids=lambda v: str(v))
    def test_matches_quadrature_oracle(self, law, d):
        rep = classify_integrability(law, d)
        value, finite = moment_quadrature_oracle(law, d)
        assert rep.integrable == finite
        if finite:
            assert rep.moment == pytest.approx(value, rel=2e-3)




class TestCoverageCondition:
    def test_pareto_half_true(self):
        assert check_coverage_condition(ParetoRadius(0.5, 1.0)).converges

    def test_pareto_three_halves_false(self):
        assert not check_coverage_condition(ParetoRadius(1.5, 1.0)).converges

    def test_dirac_false(self):
        assert not check_coverage_condition(DiracRadius(3.0)).converges

    def test_alpha_one_depends_on_xmin(self):
        assert check_coverage_condition(ParetoRadius(1.0, 2.0)).converges
        assert not check_coverage_condition(ParetoRadius(1.0, 0.5)).converges

    @pytest.mark.parametrize("law", ALL_LAWS + [ParetoRadius(0.5, 1.0),
                                                ParetoRadius(1.5, 1.0)],
                             ids=lambda v: str(v))
    def test_analytic_matches_quadrature_oracle(self, law):
        report = check_coverage_condition(law)
        assert report.converges == coverage_quadrature_oracle(law)
        forced = check_coverage_condition(law, method="quadrature")
        if not forced.inconclusive:
            assert forced.converges == report.converges

    def test_inconclusive_is_flagged(self):
        # alpha = 1, xmin barely above 1: converges like u^-1.05, far too slow
        # to resolve at the cutoff
        report = check_coverage_condition(ParetoRadius(1.0, 1.05),
                                          method="quadrature")
        assert report.method == "quadrature"
        assert report.inconclusive
        # the analytic route settles it
        assert check_coverage_condition(ParetoRadius(1.0, 1.05)).converges

    def test_atom_mixture_scales_log_coefficient(self):
        # survival (1-p0) xmin / r: effective coefficient 0.6 * 2.5 = 1.5 > 1
        assert check_coverage_condition(
            AtomMixtureRadius(0.4, ParetoRadius(1.0, 2.5))).converges
        # 0.6 * 1.2 < 1
        assert not check_coverage_condition(
            AtomMixtureRadius(0.4, ParetoRadius(1.0, 1.2))).converges


class TestQTildeTransform:
    def test_d1_identity(self):
        law = ParetoRadius(1.5, 1.0)
        assert q_tilde_transform(law, 2.0, 1) is law

    def test_dirac_sqrt2(self):
        tilde = q_tilde_transform(DiracRadius(math.sqrt(2.0)), 1.0, 2)
        rng = np.random.default_rng(0)
        assert tilde.sample(rng, 1)[0] == pytest.approx(1.0)
        assert float(tilde.cdf(0.999)) == 0.0
        assert float(tilde.cdf(1.0)) == 1.0

    def test_uniform_atom(self):
        tilde = q_tilde_transform(UniformRadius(0.0, 2.0), 1.0, 2)
        assert tilde.atom_at_zero() == pytest.approx(0.5)

    def test_cdf_relation(self):
        law = ExponentialRadius(1.0)
        k, d = 0.7, 3
        tilde = q_tilde_transform(law, k, d)
        shift = (d - 1) * k * k
        r = np.linspace(0.0, 5.0, 50)
        assert np.allclose(tilde.cdf(r), law.cdf(np.sqrt(r * r + shift)))

    def test_survival_never_above_source(self):
        law = ParetoRadius(0.8, 0.5)
        tilde = q_tilde_transform(law, 1.0, 2)
        r = np.linspace(0.0, 20.0, 200)
        assert np.all(np.asarray(tilde.survival(r)) <= np.asarray(law.survival(r)) + 1e-12)

    def test_sampling_matches_transformed_cdf(self):
        tilde = q_tilde_transform(ParetoRadius(1.2, 1.0), 0.5, 2)
        rng = np.random.default_rng(3)
        sample = tilde.sample(rng, 50000)
        x = np.sort(sample)
        emp = np.arange(1, len(x) + 1) / len(x)
        assert np.max(np.abs(emp - np.asarray(tilde.cdf(x)))) < 0.01

    def test_transform_preserves_integrability_class(self):
        tilde = q_tilde_transform(ParetoRadius(1.5, 1.0), 1.0, 2)
        assert not classify_integrability(tilde, 2).integrable
        tilde2 = q_tilde_transform(ParetoRadius(3.5, 1.0), 1.0, 2)
        rep = classify_integrability(tilde2, 2)
        oracle, _ = integrate.quad(
            lambda t: 2 * t * float(tilde2.survival(t)), 0.0, math.inf, limit=200)
        assert rep.integrable and rep.moment == pytest.approx(oracle, rel=1e-6)


class TestConditionSummary:
    def test_reports_both_strict_and_conjectured(self):
        law = AtomMixtureRadius(0.4, ParetoRadius(0.5, 1.0))
        out = condition_summary(law, 2, q=2, q_bar=2.5, k=1.0)
        assert out["coverage_condition"] is True
        assert out["coverage_conjectured"] is True
        assert out["atom"] == pytest.approx(0.4)
        assert out["atom_strict"] is True  # 0.4 < 1/2
        assert out["atom_conjectured"] is True
        assert "tilde_atom" in out


TRANSFORMED_LAWS = [
    q_tilde_transform(DiracRadius(1.0), 0.5, 2),
    q_tilde_transform(AtomMixtureRadius(0.3, ParetoRadius(0.5, 1.0)), 0.5, 3),
]


class TestLawSpec:
    def test_round_trip(self):
        for law in ALL_LAWS + TRANSFORMED_LAWS:
            assert law_from_spec(law.to_spec()) == law

    def test_round_trip_keeps_hash_and_repr(self):
        for law in ALL_LAWS + TRANSFORMED_LAWS:
            back = law_from_spec(law.to_spec())
            assert back.to_spec() == law.to_spec()
            assert (hash(back), repr(back)) == (hash(law), repr(law))

    @pytest.mark.parametrize("spec", [
        {"kind": "dirac", "radius": True},
        {"kind": "uniform", "low": False, "high": 1.0},
        {"kind": "pareto", "alpha": 1.5, "xmin": True},
        {"kind": "atom_mixture", "p0": False,
         "remainder": {"kind": "exponential", "rate": True}},
        {"kind": "transformed", "shift": True,
         "source": {"kind": "dirac", "radius": 1.0}},
    ], ids=["dirac", "uniform", "pareto", "nested", "transformed"])
    def test_boolean_field_refused(self, spec):
        # JSON true is not 1.0, in a config's record or a library caller's
        with pytest.raises(ValueError, match="takes no booleans"):
            law_from_spec(spec)

    @pytest.mark.parametrize("build", [
        lambda v: DiracRadius(v), lambda v: UniformRadius(v, 1.0),
        lambda v: UniformRadius(0.0, v), lambda v: ExponentialRadius(v),
        lambda v: ParetoRadius(v, 1.0), lambda v: ParetoRadius(1.0, v),
        lambda v: AtomMixtureRadius(v, DiracRadius(1.0)),
        lambda v: TransformedRadius(DiracRadius(1.0), v),
    ], ids=["dirac", "uniform-low", "uniform-high", "exponential",
            "pareto-alpha", "pareto-xmin", "atom-p0", "transformed-shift"])
    def test_nan_parameter_refused(self, build):
        with pytest.raises(ValueError):
            build(float("nan"))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            law_from_spec({"kind": "cauchy", "scale": 1.0})

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            law_from_spec({"kind": "dirac", "radius": 1.0, "typo": 2})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            law_from_spec({"kind": "uniform", "low": 0.0})
