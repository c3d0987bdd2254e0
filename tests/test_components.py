import numpy as np
import pytest
from scipy.sparse import csgraph, csr_matrix

from helpers import bfs_ncc_oracle
from wrsim.geometry import Configuration, Window
from wrsim.components import (_dense_labels, connected_components,
                              crossing_exists, covered_fraction, probe_points,
                              color_census)
from wrsim.sampling import MultiTypeConfiguration, sample_poisson
from wrsim.distributions import DiracRadius, ParetoRadius, UniformRadius




def random_config(rng, n, d, heavy=False):
    centers = rng.random((n, d)) * 8.0
    if heavy:
        radii = 0.25 * (1.0 - rng.random(n)) ** (-1.0 / 1.5)
    else:
        radii = rng.random(n) * 0.6
    return Configuration(centers, radii)


class TestConnectedComponents:
    def test_two_disjoint(self):
        cfg = Configuration(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([1.0, 1.0]))
        assert connected_components(cfg).n_cc == 2

    def test_chain_is_transitive(self):
        cfg = Configuration(np.array([[0.0], [1.5], [3.0]]), np.array([1.0, 1.0, 1.0]))
        lab = connected_components(cfg)
        assert lab.n_cc == 1
        assert np.all(lab.labels == 0)

    def test_empty(self):
        lab = connected_components(Configuration.empty(2))
        assert lab.n_cc == 0 and len(lab.labels) == 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_bfs_oracle(self, d):
        rng = np.random.default_rng(100 + d)
        for trial in range(20):
            cfg = random_config(rng, int(rng.integers(0, 200)), d,
                                heavy=trial % 3 == 0)
            lab = connected_components(cfg)
            n_oracle, labels_oracle = bfs_ncc_oracle(cfg)
            assert lab.n_cc == n_oracle
            # same partition, not just the same count
            for a in np.unique(lab.labels):
                members = lab.labels == a
                assert len(np.unique(labels_oracle[members])) == 1

    def test_labels_are_smallest_member(self):
        rng = np.random.default_rng(7)
        cfg = random_config(rng, 80, 2)
        lab = connected_components(cfg)
        for a in np.unique(lab.labels):
            assert lab.members(a).min() == a

    def test_subadditive_under_spatial_split(self):
        # splitting the balls by centre half-space never lowers the total
        # component count
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_config(rng, int(rng.integers(2, 60)), 2)
            cut = float(np.median(cfg.centers[:, 0]))
            left = cfg.centers[:, 0] <= cut
            n_full = connected_components(cfg).n_cc
            n_left = connected_components(
                Configuration(cfg.centers[left], cfg.radii[left])).n_cc
            n_right = connected_components(
                Configuration(cfg.centers[~left], cfg.radii[~left])).n_cc
            assert n_full <= n_left + n_right

    def test_adding_ball_changes_ncc_by_at_most_one_up(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            cfg = random_config(rng, int(rng.integers(1, 50)), 2)
            n0 = connected_components(cfg).n_cc
            extra_center = rng.random((1, 2)) * 8.0
            extra = Configuration(
                np.concatenate([cfg.centers, extra_center]),
                np.concatenate([cfg.radii, [rng.random()]]))
            n1 = connected_components(extra).n_cc
            assert n1 <= n0 + 1
            assert n1 >= 1


@pytest.mark.parametrize("n", [0, 1, 2, 64])
def test_dense_labels_match_csgraph(n):
    # the dense propagation's labels equal csgraph's components mapped to
    # their smallest member, at the edges of its range and at its largest
    rng = np.random.default_rng(60 + n)
    for trial in range(30):
        side = 2.0 if trial % 2 else 12.0
        centers = rng.random((n, 2)) * side
        radii = rng.random(n) * 0.8
        adj = (((centers[:, None, :] - centers) ** 2).sum(-1)
               <= (radii[:, None] + radii) ** 2)
        _, ids = csgraph.connected_components(csr_matrix(adj), directed=False)
        _, first = np.unique(ids, return_index=True)
        got = _dense_labels(centers, radii)
        assert got.dtype == np.intp and got.shape == (n,)
        assert np.array_equal(got, first[ids])


class TestCrossing:
    def test_empty(self):
        w = Window([0, 0], [6, 6])
        cfg = Configuration.empty(2)
        assert not crossing_exists(connected_components(cfg), cfg, w, 0)

    def test_single_spanning_ball(self):
        w = Window([0, 0], [6, 6])
        cfg = Configuration(np.array([[3.0, 3.0]]), np.array([3.0]))
        assert crossing_exists(connected_components(cfg), cfg, w, 0)

    def test_needs_both_faces(self):
        w = Window([0, 0], [6, 6])
        cfg = Configuration(np.array([[0.5, 3.0]]), np.array([1.0]))
        lab = connected_components(cfg)
        assert not crossing_exists(lab, cfg, w, 0)

    def test_axis_out_of_range(self):
        w = Window([0, 0], [6, 6])
        cfg = Configuration.empty(2)
        with pytest.raises(ValueError):
            crossing_exists(connected_components(cfg), cfg, w, 2)

    def test_crossing_probability_monotone_in_z(self):
        w = Window([0, 0], [6, 6])
        law = DiracRadius(0.5)
        rng = np.random.default_rng(21)
        rates = []
        for z in (0.4, 0.9, 1.6):
            hits = 0
            for _ in range(300):
                cfg = sample_poisson(w, z, law, rng)
                hits += crossing_exists(connected_components(cfg), cfg, w, 0)
            rates.append(hits / 300)
        se = max(np.sqrt(r * (1 - r) / 300) for r in rates) * np.sqrt(2)
        assert rates[1] >= rates[0] - 3 * se
        assert rates[2] >= rates[1] - 3 * se


class TestCoveredFraction:
    def test_empty_is_zero(self):
        assert covered_fraction(Configuration.empty(2), Window([0, 0], [4, 4])) == 0.0

    def test_containing_ball_is_one(self):
        w = Window([0, 0], [4, 4])
        cfg = Configuration(np.array([[2.0, 2.0]]), np.array([4.0]))
        assert covered_fraction(cfg, w) == 1.0

    def test_probe_points_deterministic(self):
        w = Window([0, 0], [4, 4])
        assert np.array_equal(probe_points(w, 500), probe_points(w, 500))
        assert len(probe_points(w, 500)) >= 500

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(31)
        w = Window([0, 0], [8, 8])
        cfg = random_config(rng, 30, 2)
        sub = Configuration(cfg.centers[:12], cfg.radii[:12])
        assert covered_fraction(sub, w) <= covered_fraction(cfg, w)

    def test_heavy_tail_coverage_tendency(self):
        # non-integrable radii at unit activity cover nearly everything
        w = Window([0, 0], [10, 10])
        law = ParetoRadius(1.5, 1.0)
        rng = np.random.default_rng(32)
        high = 0
        for _ in range(100):
            cfg = sample_poisson(w, 1.0, law, rng)
            if covered_fraction(cfg, w, probes=1024) >= 0.99:
                high += 1
        assert high >= 95


class TestColorCensus:
    def test_single_color(self):
        mc = MultiTypeConfiguration([
            Configuration.empty(2),
            Configuration(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.5, 0.5])),
        ])
        census = color_census(mc)
        assert census.monochromatic
        assert census.dominant_fraction == 1.0
        assert census.counts.tolist() == [0, 2]

    def test_balanced_two_colors(self):
        mc = MultiTypeConfiguration([
            Configuration(np.array([[0.0, 0.0]]), np.array([0.5])),
            Configuration(np.array([[3.0, 3.0]]), np.array([0.5])),
        ])
        census = color_census(mc)
        assert not census.monochromatic
        assert census.dominant_fraction == 0.5

    def test_empty_is_monochromatic_by_convention(self):
        census = color_census(MultiTypeConfiguration.empty(3, 2))
        assert census.monochromatic
        assert census.dominant_fraction == 1.0
