import io
import math

import numpy as np
import pytest
from scipy import stats

from wrsim import sampling
from wrsim.geometry import Configuration, Window, _sq_dist
from wrsim.distributions import (AtomMixtureRadius, DiracRadius,
                                 ParetoRadius, UniformRadius)
from wrsim.components import connected_components
from wrsim.sampling import (MultiTypeConfiguration, BoundaryCondition,
                            GibbsParams, RejectionBudgetError, sample_poisson,
                            sample_multitype_poisson, is_authorized,
                            build_boundary, sample_wr_rejection_many,
                            authorized_count,
                            WidomRowlinsonChain, RandomClusterChain,
                            fk_coloring,
                            effective_sample_size,
                            dump_multitype_configuration,
                            load_multitype_configuration)
from wrsim.sampling import (FLOAT_FORMAT, _AUTH_CHUNK, _batch_authorized,
                            _extract_mc)
from helpers import (ORACLE_LAWS, loaded_chain, oracle_params,
                     reference_cluster_chain, reference_rejection,
                     reference_wr_chain)
from wrsim.slab import SlabParams

LAW = DiracRadius(0.5)
WINDOW = Window.cube(3.0, 2)


class TestPoisson:
    def test_zero_activity_empty(self):
        cfg = sample_poisson(WINDOW, 0.0, LAW, np.random.default_rng(0))
        assert len(cfg) == 0

    def test_count_moments(self):
        rng = np.random.default_rng(1)
        w = Window.cube(2.0, 2)
        counts = np.array([len(sample_poisson(w, 1.5, LAW, rng))
                           for _ in range(10000)])
        mean = 1.5 * 4.0
        se = math.sqrt(mean / 10000)
        assert abs(counts.mean() - mean) < 3 * se
        assert abs(counts.var() / counts.mean() - 1.0) < 0.05

    def test_centers_uniform(self):
        rng = np.random.default_rng(2)
        cfg = sample_poisson(Window([1, 2], [3, 5]), 200.0, LAW, rng)
        assert np.all(cfg.centers >= [1, 2]) and np.all(cfg.centers < [3, 5])
        p = stats.kstest((cfg.centers[:, 0] - 1) / 2, "uniform").pvalue
        assert p > 1e-4

    def test_determinism(self):
        a = sample_poisson(WINDOW, 1.0, LAW, np.random.default_rng(5))
        b = sample_poisson(WINDOW, 1.0, LAW, np.random.default_rng(5))
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.radii, b.radii)


class TestMultiTypePoisson:
    def test_q1_reduces_to_poisson(self):
        params = GibbsParams.symmetric(1, 1.0, LAW, WINDOW)
        mc = sample_multitype_poisson(params, np.random.default_rng(3))
        direct = sample_poisson(WINDOW, 1.0, LAW, np.random.default_rng(3))
        assert np.array_equal(mc.configs[0].centers, direct.centers)

    def test_independence_of_colors(self):
        params = GibbsParams(q=2, z=(1.0, 1.0), laws=(LAW, LAW),
                             window=Window.cube(1.0, 2))
        rng = np.random.default_rng(4)
        counts = np.array([sample_multitype_poisson(params, rng).counts()
                           for _ in range(10000)])
        cov = np.cov(counts.T)[0, 1]
        se = 1.0 / math.sqrt(10000)  # var of each side is z|L| = 1
        assert abs(cov) < 3 * se

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), -0.5])
    def test_activity_must_be_finite_and_nonnegative(self, z):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            GibbsParams.symmetric(2, z, LAW, WINDOW)

    def test_zero_activity_colors_empty(self):
        params = GibbsParams(q=3, z=(0.0, 1.0, 0.0), laws=(LAW,) * 3,
                             window=WINDOW)
        mc = sample_multitype_poisson(params, np.random.default_rng(5))
        assert len(mc.configs[0]) == 0 and len(mc.configs[2]) == 0


class TestAuthorized:
    def test_empty_true(self):
        assert is_authorized(MultiTypeConfiguration.empty(2, 2))

    def test_same_color_overlap_allowed(self):
        mc = MultiTypeConfiguration([
            Configuration(np.array([[0.0, 0.0], [0.1, 0.0]]), np.array([1.0, 1.0])),
            Configuration.empty(2)])
        assert is_authorized(mc)

    def test_cross_color_tangency_forbidden(self):
        mc = MultiTypeConfiguration([
            Configuration(np.array([[0.0, 0.0]]), np.array([1.0])),
            Configuration(np.array([[2.0, 0.0]]), np.array([1.0]))])
        assert not is_authorized(mc)

    def test_boundary_balls_count(self):
        mc = MultiTypeConfiguration([
            Configuration(np.array([[2.9, 1.5]]), np.array([0.5])),
            Configuration.empty(2)])
        boundary = MultiTypeConfiguration([
            Configuration.empty(2),
            Configuration(np.array([[3.4, 1.5]]), np.array([0.5]))])
        assert is_authorized(mc)
        assert not is_authorized(mc, boundary)

    def test_boundary_colour_count_must_match(self):
        # colours 1 and 3 overlap; a 2-colour boundary must not hide colour 3
        ball = Configuration(np.array([[1.0, 1.0]]), np.array([0.5]))
        mc = MultiTypeConfiguration([ball, Configuration.empty(2), ball])
        assert not is_authorized(mc)
        with pytest.raises(ValueError, match="boundary has 2 colours, not 3"):
            is_authorized(mc, MultiTypeConfiguration.empty(2, 2))


class TestRejection:
    def test_q1_first_attempt(self):
        params = GibbsParams.symmetric(1, 1.0, LAW, WINDOW)
        _, attempts = sample_wr_rejection_many(
            params, 1, np.random.default_rng(6), batch=1)
        assert attempts == 1

    def test_tiny_activity_accepts_quickly(self):
        params = GibbsParams.symmetric(2, 0.01, LAW, Window.cube(1.0, 2))
        rng = np.random.default_rng(7)
        attempts = [sample_wr_rejection_many(params, 1, rng, batch=1)[1]
                    for _ in range(200)]
        assert np.mean(attempts) < 1.2

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_is_refused(self, batch):
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        with pytest.raises(ValueError, match="batch must be >= 1"):
            sample_wr_rejection_many(params, 1, np.random.default_rng(0),
                                     batch=batch)

    def test_budget_error_carries_attempts(self):
        # radii so large that any two cross-colour balls conflict
        params = GibbsParams.symmetric(2, 30.0, DiracRadius(10.0),
                                       Window.cube(1.0, 2))
        with pytest.raises(RejectionBudgetError) as err:
            sample_wr_rejection_many(params, 1, np.random.default_rng(8),
                                     max_attempts=50, batch=1)
        assert err.value.attempts == 50

    def test_batch_matches_sequential_acceptance(self):
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        rng = np.random.default_rng(9)
        _, attempts = sample_wr_rejection_many(params, 400, rng, batch=4096)
        p_batch = 400 / attempts
        trials = 4000
        accepted = authorized_count(params, trials, np.random.default_rng(10))
        p_seq = accepted / trials
        se = math.sqrt(p_seq * (1 - p_seq) / trials
                       + p_batch * (1 - p_batch) / attempts)
        assert abs(p_batch - p_seq) < 3 * se

    def test_batch_sample_law_matches_sequential(self):
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        batch, _ = sample_wr_rejection_many(params, 600,
                                            np.random.default_rng(11))
        seq_rng = np.random.default_rng(12)
        seq = [sample_wr_rejection_many(params, 1, seq_rng, batch=1)[0][0]
               for _ in range(600)]
        tb = np.array([mc.total_count() for mc in batch])
        ts = np.array([mc.total_count() for mc in seq])
        se = math.sqrt(tb.var() / len(tb) + ts.var() / len(ts))
        assert abs(tb.mean() - ts.mean()) < 3 * se

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("boundary", ["free", "ordered"])
    @pytest.mark.parametrize("law", [
        DiracRadius(0.3), UniformRadius(0.0, 0.5), ParetoRadius(1.2, 0.2),
        AtomMixtureRadius(0.3, ParetoRadius(0.5, 0.05))], ids=repr)
    def test_one_row_batches_equal_reference(self, law, boundary, q, d, seed):
        # a single-row batch draws each attempt's colours in the order of
        # the one-at-a-time loop: same balls, attempts, budget error and
        # generator state (this grid gives 88 draws and 56 budget errors)
        cond = (BoundaryCondition.ordered(q, 1.0) if boundary == "ordered"
                else BoundaryCondition.free())
        params = GibbsParams.symmetric(
            q, 0.6, law, Window.cube({1: 6.0, 2: 3.0, 3: 2.0}[d], d),
            boundary=cond)
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = reference_rejection(params, ref_rng, max_attempts=20)
        except RejectionBudgetError as err:
            expected = err.attempts
        try:
            samples, attempts = sample_wr_rejection_many(
                params, 1, rng, max_attempts=20, batch=1)
            got = (samples[0], attempts)
        except RejectionBudgetError as err:
            got = err.attempts
        assert type(got) is type(expected)
        if isinstance(got, tuple):
            assert got[1] == expected[1]
            for a, b in zip(got[0].configs, expected[0].configs, strict=True):
                assert np.array_equal(a.centers, b.centers)
                assert np.array_equal(a.radii, b.radii)
        else:
            assert got == expected == 20
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("boundary", [
        BoundaryCondition.free(), BoundaryCondition.ordered(1, 1.0)])
    def test_batch_rows_match_is_authorized(self, boundary):
        # more rows than one test chunk and not a multiple of it, so a
        # partial last chunk and the chunk seams are both covered
        params = GibbsParams.symmetric(3, 0.4, LAW, WINDOW, boundary=boundary)
        rng = np.random.default_rng(13)
        outside = build_boundary(params, rng)
        batch = 2 * _AUTH_CHUNK + 37
        counts, centers, radii, ok = _batch_authorized(params, batch, rng,
                                                        outside)
        assert len(ok) == batch and 0 < ok.sum() < batch
        if boundary.kind == "ordered":
            assert outside.total_count() > 0
        for row in range(batch):
            mc = _extract_mc(params, counts, centers, radii, row)
            assert ok[row] == is_authorized(mc, outside)


class TestWRChain:
    def test_q1_counts_poisson(self):
        # exact target for one colour: Poisson(z |L|)
        params = GibbsParams.symmetric(1, 1.5, DiracRadius(0.3), Window.cube(2.0, 2))
        lam = 1.5 * 4.0
        pvals = []
        for seed in range(20):
            chain = WidomRowlinsonChain(params, np.random.default_rng(400 + seed))
            counts = []
            for s in range(4000):
                chain.sweep()
                if s >= 1000 and s % 5 == 0:
                    counts.append(chain.total_count)
            counts = np.array(counts)
            kmax = 14
            obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
            pmf = np.append(stats.poisson.pmf(np.arange(kmax), lam),
                            1 - stats.poisson.cdf(kmax - 1, lam))
            pvals.append(stats.chisquare(obs, pmf * len(counts)).pvalue)
        assert np.median(pvals) > 0.01

    def test_closed_form_toy(self):
        # window [0,1]^2 with Dirac(2): every cross-colour pair conflicts, so
        # authorized configurations are exactly the monochromatic ones and
        # P(both colours empty) = 1 / (2 e^lam - 1)
        z = 1.5
        lam = z * 1.0
        target = math.exp(-2 * lam) / (math.exp(-2 * lam) * (1 + 2 * (math.exp(lam) - 1)))
        params = GibbsParams.symmetric(2, z, DiracRadius(2.0), Window.cube(1.0, 2))
        chain = WidomRowlinsonChain(params, np.random.default_rng(13))
        hits, kept = 0, 0
        for s in range(30000):
            chain.sweep()
            if s >= 2000:
                kept += 1
                hits += chain.total_count == 0
        p = hits / kept
        # correlated chain: allow ~2000 effective samples' worth of noise
        assert abs(p - target) < 5 * math.sqrt(target * (1 - target) / 2000)

    def test_agrees_with_rejection(self):
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        samples, _ = sample_wr_rejection_many(params, 3000,
                                              np.random.default_rng(14))
        rej_tot = np.array([mc.total_count() for mc in samples])
        chain = WidomRowlinsonChain(params, np.random.default_rng(15))
        tot = []
        for s in range(8000):
            chain.sweep()
            if s >= 1000:
                tot.append(chain.total_count)
        tot = np.array(tot, dtype=float)
        ess = effective_sample_size(tot)
        se = math.sqrt(rej_tot.var() / len(rej_tot) + tot.var() / ess)
        assert abs(rej_tot.mean() - tot.mean()) < 3 * se

    def test_agrees_with_rejection_on_covered_fraction(self):
        from wrsim.components import covered_fraction
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        samples, _ = sample_wr_rejection_many(params, 800,
                                              np.random.default_rng(50))
        rej = np.array([covered_fraction(mc.merged()[0], WINDOW, probes=256)
                        for mc in samples])
        chain = WidomRowlinsonChain(params, np.random.default_rng(51))
        chain.run(500)
        vals = []
        for _ in range(800):
            chain.run(4)
            vals.append(covered_fraction(chain.state().merged()[0], WINDOW,
                                         probes=256))
        vals = np.array(vals)
        ess = effective_sample_size(vals)
        se = math.sqrt(rej.var() / len(rej) + vals.var() / ess)
        assert abs(rej.mean() - vals.mean()) < 3 * se

    def test_run_from_empty_deterministic(self):
        params = GibbsParams.symmetric(2, 0.5, LAW, WINDOW)
        a = WidomRowlinsonChain(params, np.random.default_rng(16)).run(50).state()
        b = WidomRowlinsonChain(params, np.random.default_rng(16)).run(50).state()
        ca, _ = a.merged()
        cb, _ = b.merged()
        assert np.array_equal(ca.centers, cb.centers)
        assert np.array_equal(ca.radii, cb.radii)

    def test_states_stay_authorized(self):
        params = GibbsParams.symmetric(3, 0.6, UniformRadius(0.1, 0.6), WINDOW)
        chain = WidomRowlinsonChain(params, np.random.default_rng(17))
        for _ in range(30):
            chain.run(5)
            assert is_authorized(chain.state())

    def test_ordered_boundary_respected(self):
        boundary = BoundaryCondition.ordered(1, 1.5)
        params = GibbsParams.symmetric(2, 1.0, LAW, WINDOW, boundary=boundary)
        chain = WidomRowlinsonChain(params, np.random.default_rng(18))
        chain.run(150)
        state, outside = chain.state(), chain.boundary
        assert len(outside.configs[0]) > 0 and len(outside.configs[1]) == 0
        merged = MultiTypeConfiguration([
            Configuration(
                np.concatenate([state.configs[i].centers,
                                outside.configs[i].centers]),
                np.concatenate([state.configs[i].radii,
                                outside.configs[i].radii]))
            for i in range(2)])
        assert is_authorized(merged)


def same_next_draw(a, b):
    """True iff two generators give the same next draw: a run that drew
    more or fewer numbers than its reference, or drew ahead, fails."""
    return a.random() == b.random()


class TestWRChainOracle:
    """Same seed, same result: the chain against a dense transcription of
    the documented kernel (``helpers.reference_wr_chain``), every block
    checking its births by the direct scan."""

    list_fixed = math.inf  # no block repays building conflict lists

    @pytest.fixture(autouse=True)
    def birth_check(self, monkeypatch):
        monkeypatch.setattr(sampling, "_LIST_FIXED", self.list_fixed)

    def check(self, params, seed, sweeps):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chain = WidomRowlinsonChain(params, rng)
        chain.run(sweeps)
        ref, proposals, accepted = reference_wr_chain(params, sweeps, ref_rng)
        assert (chain.proposals, chain.accepted) == (proposals, accepted)
        assert accepted > 0
        for got, want in zip(chain.state().configs, ref.configs):
            assert got.centers.tobytes() == want.centers.tobytes()
            assert got.radii.tobytes() == want.radii.tobytes()
        assert same_next_draw(rng, ref_rng)

    @pytest.mark.parametrize("boundary", ["free", "ordered", "explicit"])
    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=lambda l: repr(l))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_kernel(self, d, law, q, boundary):
        self.check(oracle_params(d, law, q, boundary, seed=60 + d),
                   70 + 10 * d + q, 25)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("law", ORACLE_LAWS[1:3], ids=lambda l: repr(l))
    def test_blocks_cut_a_sweep(self, monkeypatch, law, block):
        # a sweep of 22 proposals drawn in 22 blocks, or in 8 whose last
        # one is shorter
        monkeypatch.setattr(sampling, "_BLOCK", block)
        self.check(oracle_params(2, law, 3, "ordered", seed=62), 93, 12)

    def test_one_colour_draws_no_colours(self):
        self.check(oracle_params(2, ORACLE_LAWS[2], 1, "free", seed=62), 94, 25)

    @pytest.mark.parametrize("boundary", ["free", "ordered", "explicit"])
    @pytest.mark.parametrize("law", ORACLE_LAWS[2:], ids=lambda l: repr(l))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_kernel_on_larger_windows(self, d, law,
                                                        boundary):
        # 4^d times the volume: 110 to 230 proposals per block, whose lists
        # hold boundary balls, present balls that die and earlier births
        self.check(oracle_params(d, law, 2, boundary, seed=64 + d, scale=4.0),
                   96 + d, 6)


class TestWRChainOracleWithLists(TestWRChainOracle):
    """The same cases, every block checking its births against its conflict
    lists."""

    list_fixed = -math.inf  # every block builds its lists


class TestBirthCheckChoice:
    """Which birth check the WR chain's blocks pick (the choice never
    changes a decision, only its cost)."""

    @staticmethod
    def picks(law, side, z, sweeps):
        params = GibbsParams.symmetric(2, z, law, Window.cube(side, 2))
        chain = WidomRowlinsonChain(params, np.random.default_rng(3))
        lists = []
        for _ in range(sweeps):
            chain.sweep()  # one block per sweep here
            lists.append(chain._alive is not None)
        return lists

    def test_small_blocks_scan(self):
        # crossval-small's window: 9 proposals per block
        assert self.picks(LAW, 3.0, 0.5, 20) == [False] * 20

    def test_large_sparse_blocks_take_lists(self):
        assert self.picks(ParetoRadius(1.2, 0.2), 30.0, 1.0, 3) == [True] * 3
        assert self.picks(DiracRadius(0.5), 50.0, 1.0, 2) == [True] * 2

    def test_dense_blocks_scan(self):
        # candidate pairs grow with z r^d: lists cost more than scans here
        assert self.picks(ParetoRadius(0.5, 0.05), 30.0, 1.0, 3) == [False] * 3
        assert self.picks(DiracRadius(2.0), 20.0, 5.0, 3) == [False] * 3


def test_death_pick_names_a_ball():
    # a death takes ball floor(u n) for a uniform u < 1: the largest double
    # below 1 must pick the last ball, never one past it
    u = np.nextafter(1.0, 0.0)
    n = np.concatenate([np.arange(1, 2 ** 20 + 1), 2.0 ** np.arange(53)])
    assert np.array_equal(np.floor(u * n), n - 1)


class TestCRCMChainOracle:
    """Same seed, same result: the cluster chain against a dense
    transcription of its kernel (``helpers.reference_cluster_chain``)."""

    def check(self, window, law, q, seed, sweeps):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chain = RandomClusterChain(window, 0.8, law, q, rng)
        chain.run(sweeps)
        ref, proposals, accepted, n_cc = reference_cluster_chain(
            window, 0.8, law, q, sweeps, ref_rng)
        assert (chain.proposals, chain.accepted) == (proposals, accepted)
        assert accepted > 0
        assert chain.state_n_cc() == n_cc
        if q != 1:
            assert chain.n_components == n_cc
        got = chain.state()
        assert got.centers.tobytes() == ref.centers.tobytes()
        assert got.radii.tobytes() == ref.radii.tobytes()
        assert same_next_draw(rng, ref_rng)

    @pytest.mark.parametrize("q", [1, 1.7, 2, 3])
    @pytest.mark.parametrize("law", ORACLE_LAWS, ids=lambda l: repr(l))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_reference_kernel(self, d, law, q):
        window = oracle_params(d, law, 1, "free", seed=0).window
        self.check(window, law, q, 80 + 10 * d + int(10 * q), 25)

    @pytest.mark.parametrize("block", [1, 3])
    @pytest.mark.parametrize("law", ORACLE_LAWS[2:], ids=lambda l: repr(l))
    def test_blocks_cut_a_sweep(self, monkeypatch, law, block):
        # a sweep of 8 proposals drawn in 8 blocks, or in 3 (3 + 3 + 2)
        monkeypatch.setattr(sampling, "_BLOCK", block)
        self.check(Window.cube(3.0, 2), law, 2, 95, 12)


class TestCRCMChain:
    def test_q1_reduces_to_poisson_counts(self):
        w = Window.cube(2.0, 2)
        chain = RandomClusterChain(w, 1.5, DiracRadius(0.3), 1, np.random.default_rng(19))
        counts = []
        for s in range(6000):
            chain.sweep()
            if s >= 1000 and s % 5 == 0:
                counts.append(chain.n)
        counts = np.array(counts)
        lam = 1.5 * 4.0
        se = math.sqrt(lam / len(counts)) * 2.5  # thinned, mildly correlated
        assert abs(counts.mean() - lam) < 3 * se
        assert abs(counts.var() / counts.mean() - 1.0) < 0.15

    def test_single_ball_weight_ratio(self):
        # all balls overlap, so every nonempty state is one component and
        # pi(1)/pi(0) = q z |L|
        q, z = 2.0, 0.3
        chain = RandomClusterChain(Window.cube(1.0, 2), z, DiracRadius(2.0), q,
                                   np.random.default_rng(20))
        occ = {0: 0, 1: 0}
        for s in range(50000):
            chain.sweep()
            if s >= 2000 and chain.n <= 1:
                occ[chain.n] += 1
        ratio = occ[1] / occ[0]
        assert abs(ratio - q * z) < 0.05

    def test_tracked_ncc_matches_recomputed(self):
        chain = RandomClusterChain(Window.cube(2.5, 2), 1.2, UniformRadius(0.1, 0.7),
                                   2, np.random.default_rng(21))
        for _ in range(60):
            chain.run(3)
            assert chain.n_components == connected_components(chain.state()).n_cc

    def test_tracked_ncc_matches_recomputed_heavy_tail(self):
        chain = RandomClusterChain(Window.cube(3.0, 2), 1.0, ParetoRadius(1.2, 0.3),
                                   1.7, np.random.default_rng(22))
        for _ in range(40):
            chain.run(3)
            assert chain.n_components == connected_components(chain.state()).n_cc

    def test_mean_ncc_matches_importance_sampling(self):
        # CRCM expectation E[f] = E_P[f q^Ncc] / E_P[q^Ncc] with P the plain
        # Poisson reference: estimate by reweighting Poisson draws
        w = Window.cube(2.0, 2)
        z, q, law = 1.0, 2.0, DiracRadius(0.4)
        rng = np.random.default_rng(23)
        ncc = np.array([connected_components(sample_poisson(w, z, law, rng)).n_cc
                        for _ in range(20000)], dtype=float)
        wts = q ** ncc
        oracle = float((ncc * wts).mean() / wts.mean())
        # delta-method standard error for the ratio estimator
        resid = (ncc - oracle) * wts / wts.mean()
        se_oracle = resid.std() / math.sqrt(len(ncc))
        chain = RandomClusterChain(w, z, law, q, np.random.default_rng(24))
        vals = []
        for s in range(12000):
            chain.sweep()
            if s >= 2000:
                vals.append(chain.n_components)
        vals = np.array(vals, dtype=float)
        se_chain = math.sqrt(vals.var() / effective_sample_size(vals))
        assert abs(vals.mean() - oracle) < 3 * math.hypot(se_oracle, se_chain)

    def test_run_from_empty_q1_deterministic(self):
        a = RandomClusterChain(WINDOW, 0.8, LAW, 1,
                               np.random.default_rng(25)).run(40).state()
        b = RandomClusterChain(WINDOW, 0.8, LAW, 1,
                               np.random.default_rng(25)).run(40).state()
        assert np.array_equal(a.centers, b.centers)

    @pytest.mark.parametrize("z, q", [
        (0.8, math.nan), (0.8, 0.5), (math.nan, 2.0), (math.inf, 2.0),
        (-0.5, 2.0)])
    def test_bad_activity_or_q_refused(self, z, q):
        with pytest.raises(ValueError):
            RandomClusterChain(WINDOW, z, LAW, q, np.random.default_rng(0))

    def test_real_valued_q_allowed(self):
        chain = RandomClusterChain(WINDOW, 0.5, LAW, 1.5, np.random.default_rng(26))
        chain.run(20)
        assert chain.n_components == connected_components(chain.state()).n_cc

    def test_infinite_q_refused(self):
        # q = inf gives births weights of inf and 0, so the chain would run
        # on meaningless ratios; it is refused as z = inf is
        with pytest.raises(ValueError, match="finite"):
            RandomClusterChain(WINDOW, 0.5, LAW, math.inf,
                               np.random.default_rng(0))


def same_partition(a, b):
    """True iff two per-ball label arrays induce the same partition."""
    a, b = np.asarray(a), np.asarray(b)
    if len(a) != len(b):
        return False
    pairs = len(set(zip(a.tolist(), b.tolist())))
    return pairs == len(set(a.tolist())) == len(set(b.tolist()))


def assert_labels_exact(chain):
    """Labels, component count and overlap matrix against a from-scratch
    labelling and closed-ball test."""
    labeling = connected_components(chain.state())
    assert chain.n_components == labeling.n_cc
    assert same_partition(chain.labels[:chain.n], labeling.labels)
    c, r = chain.states[0].view()
    meets = _sq_dist(c[:, None, :], c) <= (r[:, None] + r) ** 2
    assert np.array_equal(chain.adj[:chain.n, :chain.n], meets)


def record_pieces(chain):
    """Wrap the chain's death split so every piece count it returns is kept."""
    seen = []
    search = chain._death_pieces

    def recorded(j):
        out = search(j)
        seen.append(out[0])
        return out
    chain._death_pieces = recorded
    return seen


def slab_chain_args(n, z, law):
    """Cluster-chain arguments (window, z, law, q) of a k=1, d=2, q=2 slab."""
    slab = SlabParams(n=n, k=1.0, d=2, z=z, law=law, q=2.0)
    return slab.window, slab.z, slab.law, slab.q


class TestCRCMExactness:
    """The incremental labels must give the from-scratch partition after
    every sweep, on chains whose deaths split components."""

    @pytest.mark.parametrize("args, sweeps", [
        # z = 0.5: at z = 6 the heavy tail joins the whole slab into one
        # component once it has filled, so deaths met splits only in the
        # first five sweeps from empty, and only on about a third of 120
        # seeds within 100 sweeps; at z = 0.5 each of 300 seeds met one
        # within 100 sweeps, with scalar draws and with block draws alike
        (slab_chain_args(n=16.0, z=0.5, law=ParetoRadius(0.5, 0.5)), 100),
        (slab_chain_args(n=30.0, z=3.0, law=DiracRadius(0.8)), 10),
        ((Window.cube(3.0, 3), 3.0, ParetoRadius(0.5, 0.05), 2.0), 30),
        ((Window.cube(3.0, 2), 1.5, UniformRadius(0.1, 0.7), 1.7), 40),
    ], ids=["slab-pareto0.5", "slab-dirac0.8", "3d-pareto0.5", "q1.7"])
    def test_labels_match_recomputed_every_sweep(self, args, sweeps):
        chain = RandomClusterChain(*args, np.random.default_rng(31))
        pieces = record_pieces(chain)
        for _ in range(sweeps):
            chain.sweep()
            assert_labels_exact(chain)
        assert max(pieces) >= 2  # some death proposal met a real split

    def test_overlap_matrix_grows_with_the_buffer(self):
        # from empty past 128 balls: checked right after every doubling of
        # the capacity (the accepted birth that made it) and after every
        # sweep
        chain = RandomClusterChain(Window.cube(12.0, 2), 1.0,
                                   UniformRadius(0.2, 0.6), 2.0,
                                   np.random.default_rng(32))
        seen = set()
        add = chain._add

        def checked(i, x, r):
            add(i, x, r)
            if len(chain.adj) not in seen:
                seen.add(len(chain.adj))
                assert_labels_exact(chain)
        chain._add = checked
        for _ in range(10):
            chain.sweep()
            assert_labels_exact(chain)
        assert seen >= {8, 16, 32, 64, 128, 256}
        assert len(chain.adj) == len(chain.labels) == len(chain.states[0].radii)

    def test_flat_weight_keeps_no_matrix(self):
        chain = RandomClusterChain(WINDOW, 0.8, LAW, 1,
                                   np.random.default_rng(33)).run(5)
        assert chain.n > 0 and chain.adj is None


class _ScriptedRng:
    """Stands in for a generator: each ``random`` call returns the next
    scripted array, which must have the requested shape; the one colour of
    a cluster chain takes no draw."""

    def __init__(self, *arrays):
        self.arrays = [np.asarray(a, dtype=float) for a in arrays]

    def random(self, size):
        out = self.arrays.pop(0)
        assert out.shape == np.empty(size).shape
        return out

    def integers(self, high, size):
        assert high == 1
        return np.zeros(size, dtype=np.int64)


class TestDeathSplit:
    def test_path_middle_removed_two_pieces(self):
        chain = loaded_chain([[1, 1], [2, 1], [3, 1]], [0.5] * 3)
        pieces, closed = chain._death_pieces(1)
        assert pieces == 2
        assert [sorted(g.tolist()) for g in closed] in ([[0]], [[2]])

    def test_star_centre_removed_three_pieces(self):
        chain = loaded_chain([[5, 5], [6, 5], [5, 6], [4, 5]], [0.5] * 4)
        pieces, closed = chain._death_pieces(0)
        assert pieces == 3
        assert len(closed) == 2

    def test_ring_one_piece(self):
        angles = np.arange(8) * 2 * np.pi / 8
        centers = 5 + 2 * np.column_stack([np.cos(angles), np.sin(angles)])
        chain = loaded_chain(centers, [0.8] * 8)
        assert connected_components(chain.state()).n_cc == 1
        for j in range(8):
            assert chain._death_pieces(j) == (1, [])

    def test_big_ball_meeting_every_leaf_one_piece(self):
        # the leaves meet the removed centre and the big ball but never each
        # other: the star on the largest neighbour joins them
        leaves = [[6, 5], [4, 5], [5, 6], [5, 4]]
        chain = loaded_chain([[5, 5]] + leaves + [[5.2, 5]], [0.5] * 5 + [2.0])
        assert chain._death_pieces(0) == (1, [])
        assert loaded_chain(leaves, [0.5] * 4).n_components == 4

    def test_dirac_triangle_fan_one_piece(self):
        # equal balls on an arc around the removed one: each meets only its
        # arc neighbours, so no neighbour meets all the others, yet the fan
        # of triangles joins them
        angles = np.radians([0, 50, 100, 150, 200])
        fan = 5 + 0.9 * np.column_stack([np.cos(angles), np.sin(angles)])
        chain = loaded_chain(np.vstack([[5, 5], fan]), [0.5] * 6)
        assert chain._death_pieces(0) == (1, [])
        assert loaded_chain(fan[[0, 2, 4]], [0.5] * 3).n_components == 3

    def test_isolated_ball_no_piece(self):
        chain = loaded_chain([[1, 1], [5, 5], [5.5, 5]], [0.3] * 3)
        assert chain._death_pieces(0) == (0, [])
        assert chain._death_pieces(1) == (1, [])

    def test_split_far_from_the_removed_ball(self):
        # two long arms that only meet at the removed ball: each BFS must
        # run the whole arm before the split is known
        arm = [[5 + 0.9 * t, 5] for t in range(1, 7)]
        other = [[5 - 0.9 * t, 5] for t in range(1, 7)]
        chain = loaded_chain([[5, 5]] + arm + other, [0.5] * 13)
        pieces, closed = chain._death_pieces(0)
        assert pieces == 2
        assert sorted(closed[0].tolist()) in (list(range(1, 7)),
                                              list(range(7, 13)))

    def test_accepted_split_keeps_labels_exact(self):
        # star plus a separate pair; a one-proposal sweep proposes the death
        # of the centre with uniforms that force acceptance
        centers = [[5, 5], [6, 5], [5, 6], [4, 5], [1, 1], [1.5, 1]]
        rng = _ScriptedRng([0.9], [[0.5, 0.5]], [0.0], [0.0])  # coin, centre,
        chain = loaded_chain(centers, [0.5] * 6, rng=rng)    # pick, accept
        chain.proposals_per_sweep = 1
        assert chain.n_components == 2
        chain.sweep()
        assert not rng.arrays  # the Dirac law draws no radius
        assert chain.n == 5 and chain.n_components == 4
        assert_labels_exact(chain)
        # the star had label 0 and the pair label 4; two leaves were closed
        # off with fresh labels, the last leaf kept 0
        assert sorted(set(chain.labels[:chain.n].tolist())) == [0, 4, 6, 7]


class TestFKColoring:
    def test_single_component_monochromatic(self):
        cfg = Configuration(np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([1.0, 1.0]))
        rng = np.random.default_rng(27)
        freqs = np.zeros(3)
        for _ in range(5000):
            mc = fk_coloring(cfg, 3, rng)
            counts = mc.counts()
            assert counts.max() == 2 and counts.sum() == 2  # one colour only
            freqs[np.argmax(counts)] += 1
        freqs /= 5000
        assert np.all(np.abs(freqs - 1 / 3) < 3 * math.sqrt((1 / 3) * (2 / 3) / 5000))

    def test_isolated_balls_uniform_colorings(self):
        # 3 isolated balls, q = 2: all 8 colourings equally likely
        cfg = Configuration(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]),
                            np.array([0.5, 0.5, 0.5]))
        rng = np.random.default_rng(28)
        tallies = np.zeros(8)
        n = 16000
        for _ in range(n):
            mc = fk_coloring(cfg, 2, rng)
            bits = 0
            _, colors = mc.merged()
            order = np.argsort(mc.merged()[0].centers[:, 0] * 10
                               + mc.merged()[0].centers[:, 1])
            for b, c in enumerate(colors[order]):
                bits |= (int(c) - 1) << b
            tallies[bits] += 1
        p = stats.chisquare(tallies).pvalue
        assert p > 0.001

    def test_projection_preserves_ball_set(self):
        rng = np.random.default_rng(29)
        cfg = sample_poisson(WINDOW, 1.0, UniformRadius(0.1, 0.8), rng)
        mc = fk_coloring(cfg, 4, rng)
        merged, _ = mc.merged()
        key = np.lexsort(merged.centers.T)
        key0 = np.lexsort(cfg.centers.T)
        assert np.allclose(merged.centers[key], cfg.centers[key0])
        assert np.allclose(merged.radii[key], cfg.radii[key0])

    def test_output_always_authorized(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            cfg = sample_poisson(WINDOW, 1.2, UniformRadius(0.1, 0.9), rng)
            assert is_authorized(fk_coloring(cfg, 3, rng))

    @pytest.mark.parametrize("q", [0, -1, 2.5, math.inf, math.nan])
    def test_refuses_q_not_positive_integer(self, q):
        cfg = Configuration(np.array([[0.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError, match="q must be a positive integer"):
            fk_coloring(cfg, q, np.random.default_rng(0))


class TestBoundary:
    def test_free_empty(self):
        params = GibbsParams.symmetric(2, 1.0, LAW, WINDOW)
        assert build_boundary(params, np.random.default_rng(31)).total_count() == 0

    def test_zero_shell_empty(self):
        params = GibbsParams.symmetric(
            2, 1.0, LAW, WINDOW, boundary=BoundaryCondition.ordered(1, 0.0))
        assert build_boundary(params, np.random.default_rng(32)).total_count() == 0

    def test_ordered_retained_balls_reach_window(self):
        params = GibbsParams.symmetric(
            2, 3.0, LAW, WINDOW, boundary=BoundaryCondition.ordered(1, 2.0))
        mc = build_boundary(params, np.random.default_rng(33))
        assert mc.counts()[1] == 0
        cfg = mc.configs[0]
        assert len(cfg) > 0
        dist = WINDOW.distance_to(cfg.centers)
        assert np.all(dist > 0)          # centres strictly outside
        assert np.all(dist <= 0.5 + 1e-12)  # within one radius of the window

    def test_explicit_inside_center_rejected(self):
        bad = MultiTypeConfiguration([
            Configuration(np.array([[1.0, 1.0]]), np.array([0.5])),
            Configuration.empty(2)])
        params = GibbsParams.symmetric(
            2, 1.0, LAW, WINDOW, boundary=BoundaryCondition.explicit(bad))
        with pytest.raises(ValueError):
            build_boundary(params, np.random.default_rng(34))

    def test_explicit_overlapping_colours_rejected(self):
        # no state is authorized against this boundary, the empty one included
        bad = MultiTypeConfiguration([
            Configuration(np.array([[-0.5, 1.0]]), np.array([0.4])),
            Configuration(np.array([[-0.5, 1.2]]), np.array([0.4]))])
        params = GibbsParams.symmetric(
            2, 1.0, LAW, WINDOW, boundary=BoundaryCondition.explicit(bad))
        with pytest.raises(ValueError, match="distinct colours overlap"):
            build_boundary(params, np.random.default_rng(34))
        with pytest.raises(ValueError, match="distinct colours overlap"):
            WidomRowlinsonChain(params, np.random.default_rng(34))


class TestDiagnostics:
    def test_ess_iid(self):
        x = np.random.default_rng(35).normal(size=4000)
        ess = effective_sample_size(x)
        assert 2000 < ess <= 4000

    def test_ess_correlated(self):
        rng = np.random.default_rng(36)
        x = np.empty(4000)
        x[0] = 0.0
        for i in range(1, 4000):
            x[i] = 0.9 * x[i - 1] + rng.normal()
        ess = effective_sample_size(x)
        assert ess < 1000  # (1-phi)/(1+phi) ~ 0.05 of n

    def test_ess_constant_series(self):
        assert effective_sample_size(np.ones(50)) == 50.0


class TestDumps:
    def test_multitype_round_trip(self):
        rng = np.random.default_rng(37)
        params = GibbsParams.symmetric(3, 0.8, UniformRadius(0.1, 0.5), WINDOW)
        mc = sample_multitype_poisson(params, rng)
        buf = io.StringIO()
        dump_multitype_configuration(mc, buf)
        back = load_multitype_configuration(io.StringIO(buf.getvalue()), 3, 2)
        for a, b in zip(mc.configs, back.configs):
            assert np.array_equal(a.centers, b.centers)
            assert np.array_equal(a.radii, b.radii)

    def test_line_format(self):
        # one line per ball, colour by colour: the 1-based colour, then the
        # centre coordinates and the radius in FLOAT_FORMAT
        rng = np.random.default_rng(38)
        mc = MultiTypeConfiguration(
            [Configuration(rng.random((n, 2)) * 3.0, rng.random(n))
             for n in (2, 0, 3)])
        buf = io.StringIO()
        dump_multitype_configuration(mc, buf)
        expected = "".join(
            " ".join([str(color)] + [FLOAT_FORMAT % v for v in x]
                     + [FLOAT_FORMAT % r]) + "\n"
            for color, cfg in enumerate(mc.configs, start=1)
            for x, r in zip(cfg.centers, cfg.radii))
        assert buf.getvalue() == expected

    @pytest.mark.parametrize("n", [0, 40])
    def test_one_colour_round_trip(self, n):
        rng = np.random.default_rng(8)
        cfg = Configuration(rng.random((n, 3)) * 10.0, rng.random(n) * 0.8)
        buf = io.StringIO()
        dump_multitype_configuration(MultiTypeConfiguration([cfg]), buf)
        text = buf.getvalue()
        assert len(text.splitlines()) == n
        back = load_multitype_configuration(io.StringIO(text), 1, 3).configs[0]
        assert back.dimension == 3
        assert np.array_equal(back.centers, cfg.centers)
        assert np.array_equal(back.radii, cfg.radii)

    @pytest.mark.parametrize("line", [
        "3 0.5 0.5 0.1", "0 0.5 0.5 0.1",  # colours outside 1..q
        "1 0.5 0.1", "1 0.5 0.5 0.5 0.1",  # too few or too many columns
        "x 0.5 0.5 0.1", "1 0.5 y 0.1"])  # not numbers
    def test_bad_line_is_named(self, line):
        text = "1 1.0 1.0 0.2\n\n" + line + "\n"
        with pytest.raises(ValueError, match="^line 3: "):
            load_multitype_configuration(io.StringIO(text), 2, 2)


class TestFrozenSnapshots:
    """Every configuration the library makes holds read-only float64 arrays
    of shapes (n, d) and (n,) that no chain or sampler writes again, and
    passes the public constructor's checks."""

    @staticmethod
    def assert_frozen(config, d):
        n = len(config)
        for a, shape in ((config.centers, (n, d)), (config.radii, (n,))):
            assert a.dtype == np.float64 and a.shape == shape
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0
        again = Configuration(config.centers, config.radii)
        assert np.array_equal(again.centers, config.centers)
        assert np.array_equal(again.radii, config.radii)

    def made_configurations(self):
        """(configuration, d) for chain states, merges, FK colourings and
        rejection samples, each on balls of every colour."""
        rng = np.random.default_rng(41)
        made = []
        params = GibbsParams.symmetric(
            3, 0.6, UniformRadius(0.1, 0.4), Window.cube(4.0, 2),
            boundary=BoundaryCondition.ordered(2, 1.0))
        wr = WidomRowlinsonChain(params, rng).run(30)
        state = wr.state()
        made += [(c, 2) for c in state.configs] + [(state.merged()[0], 2)]
        for q in (1.0, 2.0):
            cluster = RandomClusterChain(Window.cube(3.0, 3), 0.8, LAW, q, rng)
            blind = cluster.run(30).state()
            made.append((blind, 3))
            made += [(c, 3) for c in fk_coloring(blind, 2, rng).configs]
        samples, _ = sample_wr_rejection_many(
            GibbsParams.symmetric(2, 0.2, LAW, Window.cube(3.0, 1)), 20, rng)
        made += [(c, 1) for mc in samples for c in mc.configs]
        made += [(mc.merged()[0], 1) for mc in samples]
        return made

    def test_made_configurations_are_frozen_and_valid(self):
        made = self.made_configurations()
        assert sum(len(c) for c, _ in made) > 100
        for config, d in made:
            self.assert_frozen(config, d)

    def test_chain_states_do_not_share_the_store(self):
        params = GibbsParams.symmetric(2, 0.8, LAW, WINDOW)
        chain = WidomRowlinsonChain(params, np.random.default_rng(42)).run(10)
        state = chain.state()
        kept = [(c.centers.copy(), c.radii.copy()) for c in state.configs]
        for config, store in zip(state.configs, chain.states):
            assert not np.shares_memory(config.centers, store.centers)
            assert not np.shares_memory(config.radii, store.radii)
        chain.run(20)
        for config, (centers, radii) in zip(state.configs, kept):
            assert np.array_equal(config.centers, centers)
            assert np.array_equal(config.radii, radii)
