"""Acceptance criteria, one test per criterion.

Statistical criteria run at fixed seeds with the tolerances stated in each
test; the conftest prints a PASS/FAIL line per criterion at the end of the
session.
"""

import json
import math

import numpy as np
import pytest

from helpers import (bfs_ncc_oracle, interval_bfs_oracle,
                     moment_quadrature_oracle, coverage_quadrature_oracle)

from wrsim.geometry import Window, Configuration
from wrsim.distributions import (DiracRadius, UniformRadius, ExponentialRadius,
                                 ParetoRadius, AtomMixtureRadius,
                                 classify_integrability,
                                 check_coverage_condition, q_tilde_transform)
from wrsim.components import connected_components, crossing_exists, color_census
from wrsim.sampling import (GibbsParams, BoundaryCondition,
                            WidomRowlinsonChain, RandomClusterChain,
                            sample_multitype_poisson, sample_wr_rejection_many,
                            fk_coloring, effective_sample_size)
from wrsim.analysis import (EntropyBoundInputs, phi_m, psi_eval,
                            mono_entropy_lower_bound, entropy_upper_estimate,
                            small_z_threshold, domination_test)
from wrsim.slab import (SlabParams, transformed_radius, n_cc_right,
                        slab_ncc_samples, estimate_p, geometric_moment,
                        crcm_ncc_moment_check)
from wrsim.cli import main as cli_main

LAW_HALF = DiracRadius(0.5)
CROSS_PARAMS = GibbsParams.symmetric(2, 0.5, LAW_HALF, Window.cube(3.0, 2))


def test_c01_component_counts_match_bruteforce_oracles():
    """Criterion 1: exact n_cc and rightward n_cc on 500 random
    configurations of up to 200 balls, d in {1, 2, 3}."""
    rng = np.random.default_rng(101)
    laws = [UniformRadius(0.05, 0.8), ExponentialRadius(2.0),
            ParetoRadius(1.2, 0.2)]
    for trial in range(500):
        d = 1 + trial % 3
        k = 0.5 + 0.5 * (trial % 2)
        n = int(rng.integers(0, 201))
        centers = np.empty((n, d))
        centers[:, 0] = rng.random(n) * 20.0
        for axis in range(1, d):
            centers[:, axis] = rng.random(n) * k
        radii = np.asarray(laws[trial % 3].sample(rng, n), dtype=float)
        cfg = Configuration(centers, radii)

        n_oracle, _ = bfs_ncc_oracle(cfg)
        assert connected_components(cfg).n_cc == n_oracle

        params = SlabParams(n=20.0, k=k, d=d, z=1.0, law=laws[trial % 3],
                            q=2, q_bar=2.5)
        shadows = transformed_radius(radii, k, d) if n else np.empty(0)
        expected = interval_bfs_oracle(centers[:, 0] if n else np.empty(0),
                                       shadows)
        assert n_cc_right(cfg, params) == expected


def test_c02_rejection_and_mcmc_agree():
    """Criterion 2: q=2, Dirac(0.5), [0,3]^2, z=(0.5,0.5): rejection and
    chain means of per-colour counts and N_cc within 3 SE over >= 1e4
    effective samples per side."""
    samples, _ = sample_wr_rejection_many(CROSS_PARAMS, 10000,
                                          np.random.default_rng(202),
                                          batch=20000)
    rej = {
        "count_1": np.array([len(mc.configs[0]) for mc in samples], float),
        "count_2": np.array([len(mc.configs[1]) for mc in samples], float),
        "n_cc": np.array([connected_components(mc.merged()[0]).n_cc
                          for mc in samples], float),
    }
    chain = WidomRowlinsonChain(CROSS_PARAMS, np.random.default_rng(203))
    series = {"count_1": [], "count_2": [], "n_cc": []}
    burn, sweeps = 5000, 120000
    for s in range(sweeps):
        chain.sweep()
        if s >= burn:
            counts = chain.counts
            series["count_1"].append(counts[0])
            series["count_2"].append(counts[1])
            series["n_cc"].append(
                connected_components(chain.state().merged()[0]).n_cc)
    for name in series:
        x = np.asarray(series[name], dtype=float)
        ess = effective_sample_size(x)
        assert ess >= 10000, f"{name}: ESS {ess:.0f} below 1e4"
        r = rej[name]
        se = math.sqrt(x.var() / ess + r.var() / len(r))
        assert abs(x.mean() - r.mean()) <= 3 * se, \
            f"{name}: chain {x.mean():.4f} vs rejection {r.mean():.4f} (se {se:.4f})"


def test_c03_fk_identity():
    """Criterion 3: colouring the cluster chain's components uniformly
    reproduces the symmetric two-colour hard-core law: mean per-colour
    counts and P(polychromatic) within 3 SE."""
    w = CROSS_PARAMS.window
    cluster = RandomClusterChain(w, 0.5, LAW_HALF, 2, np.random.default_rng(301))
    fk = {"count_1": [], "count_2": [], "poly": []}
    for s in range(30000):
        cluster.sweep()
        if s >= 2000 and s % 2 == 0:
            mc = fk_coloring(cluster.state(), 2, cluster.rng)
            counts = mc.counts()
            fk["count_1"].append(counts[0])
            fk["count_2"].append(counts[1])
            fk["poly"].append(int((counts > 0).sum() > 1))
    chain = WidomRowlinsonChain(CROSS_PARAMS, np.random.default_rng(302))
    wr = {"count_1": [], "count_2": [], "poly": []}
    for s in range(30000):
        chain.sweep()
        if s >= 2000:
            counts = chain.counts
            wr["count_1"].append(counts[0])
            wr["count_2"].append(counts[1])
            wr["poly"].append(int((counts > 0).sum() > 1))
    for name in fk:
        a = np.asarray(fk[name], dtype=float)
        b = np.asarray(wr[name], dtype=float)
        se = math.sqrt(a.var() / effective_sample_size(a)
                       + b.var() / effective_sample_size(b))
        assert abs(a.mean() - b.mean()) <= 3 * se, \
            f"{name}: fk {a.mean():.4f} vs wr {b.mean():.4f} (se {se:.4f})"


def test_c04_stochastic_domination():
    """Criterion 4: hard-core means of total count and threshold exceedance
    never beat the free Poisson process by more than 3 SE, on a 3-point
    activity grid."""
    w = Window.cube(4.0, 2)
    for z in (0.5, 1.0, 1.5):
        params = GibbsParams.symmetric(2, z, LAW_HALF, w)
        threshold = round(params.expected_count)
        chain = WidomRowlinsonChain(params, np.random.default_rng(400 + int(10 * z)))
        chain.run(300)
        wr_tot = []
        for _ in range(400):
            chain.run(3)
            wr_tot.append(chain.total_count)
        rng = np.random.default_rng(440 + int(10 * z))
        po_tot = [sample_multitype_poisson(params, rng).total_count()
                  for _ in range(400)]
        report = domination_test(
            {"total_count": wr_tot,
             "threshold_exceedance": [int(t >= threshold) for t in wr_tot]},
            {"total_count": po_tot,
             "threshold_exceedance": [int(t >= threshold) for t in po_tot]})
        assert report.passed, f"z={z}: {report.rows}"


def test_c05_psi_machinery():
    """Criterion 5: Psi(0) = 0 exactly; closed-form derivative matches
    central differences within 1e-6 on a 20-point grid; the Dirac tile fit
    probability is exactly 0.25 (and matches Monte Carlo); the worked inputs
    with Psi'(0) = -0.355 certify a positive activity range."""
    inputs = EntropyBoundInputs(alpha=(0.5, 0.5), beta=0.95, gamma=0.1,
                                epsilon=0.2, m_side=4.0, d=2, phi=(0.9, 0.9))
    value, deriv = psi_eval(inputs, 0.0)
    assert value == 0.0
    assert deriv == pytest.approx(-0.355, abs=1e-12)
    h = 1e-6
    for z in np.linspace(0.0, 5.0, 20):
        _, dz = psi_eval(inputs, z)
        up, _ = psi_eval(inputs, z + h)
        down, _ = psi_eval(inputs, z - h)
        assert abs(dz - (up - down) / (2 * h)) < 1e-6
    exact, se0 = phi_m(DiracRadius(1.0), 4.0, 2)
    assert exact == 0.25 and se0 == 0.0
    mc, se = phi_m(DiracRadius(1.0), 4.0, 2, probes=40000,
                   rng=np.random.default_rng(500), method="mc")
    assert abs(mc - 0.25) <= 3 * se
    cert = small_z_threshold(inputs)
    assert cert.z_star > 0
    assert cert.margin > 0


def test_c06_entropy_ceiling():
    """Criterion 6: the rejection entropy estimate stays below z_1 + z_2
    (plus 3 SE) on three rejection-feasible parameter sets."""
    cases = [
        (GibbsParams.symmetric(2, 0.5, LAW_HALF, Window.cube(3.0, 2)), 40000),
        (GibbsParams.symmetric(2, 0.7, UniformRadius(0.1, 0.6),
                               Window.cube(2.0, 2)), 30000),
        (GibbsParams.symmetric(2, 0.6, AtomMixtureRadius(0.3, ExponentialRadius(3.0)),
                               Window.cube(2.5, 2)), 30000),
    ]
    for i, (params, replicas) in enumerate(cases):
        est = entropy_upper_estimate(params, replicas,
                                     np.random.default_rng(600 + i))
        ceiling = sum(params.z)
        assert est.estimate <= ceiling + 3 * est.stderr, \
            f"case {i}: {est.estimate:.4f} > {ceiling}"
        assert est.estimate >= 0.0


def test_c07_geometric_law_on_slab():
    """Criterion 7: in the percolating slab regime (z >= k^-d, transformed
    atom below 1/q_bar) the rightward component count is geometric: KS
    distance below 0.05 at 1e4 replicas, and the two p estimators agree."""
    params = SlabParams(n=40.0, k=0.5, d=2, z=4.0,
                        law=ParetoRadius(0.7, 0.3), q=2, q_bar=2.5)
    assert params.z >= params.k ** (-params.d)
    assert params.law_tilde().atom_at_zero() < 1.0 / params.q_bar
    ncc = slab_ncc_samples(params, 10000, np.random.default_rng(700))
    nonempty = ncc[ncc > 0]
    p_hat = float((nonempty == 1).mean())
    ks = 0.0
    for k in range(1, int(nonempty.max()) + 1):
        ks = max(ks, abs(float((nonempty <= k).mean())
                         - (1.0 - (1.0 - p_hat) ** k)))
    assert ks < 0.05, f"KS distance {ks:.4f}"
    est = estimate_p(params, 10000, np.random.default_rng(701))
    se = math.hypot(est.stderr, est.inverse_mean_stderr)
    assert abs(est.p_hat - est.inverse_mean) <= 3 * se


def test_c08_geometric_moment_formula():
    """Criterion 8: the closed form matches 200-term partial sums to 1e-9
    where finite, and flags +inf at and below p = 1 - 1/s."""
    for s_bar in (1.0, 1.5, 2.0, 3.0, 5.0):
        for u in (0.8, 0.6, 0.4, 0.2, 0.05):
            p = 1.0 - u / s_bar
            if not 0.0 < p <= 1.0:
                continue
            partial = sum(s_bar ** a * p * (1.0 - p) ** (a - 1)
                          for a in range(1, 201))
            assert geometric_moment(s_bar, p) == pytest.approx(
                partial, abs=1e-9, rel=1e-9)
    for s_bar in (1.5, 2.0, 3.0, 5.0):
        for u in (1.0, 1.1, 1.3):
            p = 1.0 - u / s_bar
            if not 0.0 < p <= 1.0:
                continue
            assert geometric_moment(s_bar, p) == math.inf


def test_c09_condition_checkers_match_quadrature():
    """Criterion 9: integrability and coverage-condition verdicts match
    independent quadrature oracles over the law table and d in {1, 2, 3}."""
    table = [DiracRadius(1.0), UniformRadius(0.0, 1.0), ExponentialRadius(1.0),
             ParetoRadius(0.5, 1.0), ParetoRadius(1.5, 1.0),
             ParetoRadius(3.5, 1.0)]
    for law in table:
        for d in (1, 2, 3):
            report = classify_integrability(law, d)
            value, finite = moment_quadrature_oracle(law, d)
            assert report.integrable == finite, f"{law!r} d={d}"
            if finite:
                assert report.moment == pytest.approx(value, rel=2e-3)
        analytic = check_coverage_condition(law)
        assert analytic.converges == coverage_quadrature_oracle(law), f"{law!r}"
        numeric = check_coverage_condition(law, method="quadrature")
        if not numeric.inconclusive:
            assert numeric.converges == analytic.converges


def test_c10a_ordered_boundary_orders_with_activity():
    """Criterion 10a: under a one-colour boundary shell the dominant-colour
    fraction increases along the activity sweep (integrable radii)."""
    w = Window.cube(3.0, 2)
    means, ses = [], []
    for z in (0.5, 2.0, 6.0):
        rng = np.random.default_rng(1000 + int(z * 10))
        fracs = []
        for _ in range(24):
            params = GibbsParams.symmetric(
                2, z, LAW_HALF, w, boundary=BoundaryCondition.ordered(1, 1.2))
            chain = WidomRowlinsonChain(params, rng)
            chain.run(250)
            fracs.append(color_census(chain.state()).dominant_fraction)
        means.append(float(np.mean(fracs)))
        ses.append(float(np.std(fracs, ddof=1)) / math.sqrt(len(fracs)))
    for i in range(len(means) - 1):
        assert means[i + 1] >= means[i] - 3 * math.hypot(ses[i], ses[i + 1])
    overall_se = math.hypot(ses[0], ses[-1])
    assert means[-1] - means[0] > 3 * overall_se, (means, ses)


def test_c10b_nonintegrable_small_z_polychromatic():
    """Criterion 10b: free-boundary samples with non-integrable radii
    (alpha = d) at small activity are polychromatic in >= 99% of replicas."""
    law = ParetoRadius(2.0, 0.1)
    assert not classify_integrability(law, 2).integrable
    params = GibbsParams.symmetric(2, 0.25, law, Window.cube(8.0, 2))
    samples, _ = sample_wr_rejection_many(params, 300,
                                          np.random.default_rng(1010),
                                          batch=2048)
    poly = sum(1 for mc in samples if (mc.counts() > 0).sum() > 1)
    assert poly >= 297, f"polychromatic {poly}/300"


def test_c10c_slab_large_z_single_spanning_component():
    """Criterion 10c: large-activity slab samples form one component that
    reaches both slab ends in >= 95% of replicas."""
    sp = SlabParams(n=12.0, k=1.0, d=2, z=4.0, law=ParetoRadius(0.5, 0.5),
                    q=2, q_bar=2.5)
    rng = np.random.default_rng(1020)
    good = 0
    replicas = 40
    for _ in range(replicas):
        chain = RandomClusterChain(sp.window, sp.z, sp.law, sp.q, rng)
        chain.run(200)
        state = chain.state()
        labeling = connected_components(state)
        if labeling.n_cc == 1 and crossing_exists(labeling, state, sp.window, 0):
            good += 1
    assert good >= math.ceil(0.95 * replicas), f"{good}/{replicas}"


def test_c11_moment_check_calibration():
    """Criterion 11: the bounded-moment check fails for q = 1 (plain Poisson
    growth) and passes for q = 2 at large activity with a coverage-condition
    law, n in {4, 8, 16} at fixed k."""
    poisson_case = SlabParams(n=4.0, k=1.0, d=2, z=1.5, law=DiracRadius(0.3),
                              q=1.0, q_bar=2.0)
    report = crcm_ncc_moment_check(poisson_case, (4.0, 8.0, 16.0), sweeps=120,
                                   replicas=40, rng=np.random.default_rng(1100))
    assert not report.passed
    assert report.slope > 0

    law = ParetoRadius(0.5, 0.5)
    assert check_coverage_condition(law).converges
    cluster_case = SlabParams(n=4.0, k=1.0, d=2, z=6.0, law=law, q=2.0,
                              q_bar=2.5)
    assert q_tilde_transform(law, 1.0, 2).atom_at_zero() < 1.0 / 2.5
    report = crcm_ncc_moment_check(cluster_case, (4.0, 8.0, 16.0), sweeps=200,
                                   replicas=20, rng=np.random.default_rng(1101))
    assert report.passed, (report.means, report.slope, report.slope_stderr)


def test_c12_cli_determinism(tmp_path):
    """Criterion 12: identical (config, seed) produce byte-identical CSV
    output, twice."""
    config = {
        "experiment": "wr-sample",
        "seed": 1234,
        "replicas": 3,
        "sweeps": 40,
        "params": {
            "q": 2, "z": 0.5,
            "law": {"kind": "dirac", "radius": 0.5},
            "window": [[0, 0], [3, 3]],
        },
        "sweep": [{"name": "z", "values": [0.25, 0.5]}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes())
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "aj"),
                     "--format", "jsonl"]) == 0
    assert cli_main(["--config", str(path), "--out", str(tmp_path / "bj"),
                     "--format", "jsonl"]) == 0
    assert ((tmp_path / "aj.jsonl").read_bytes()
            == (tmp_path / "bj.jsonl").read_bytes())
