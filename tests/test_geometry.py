import math

import numpy as np
import pytest

from helpers import all_pairs_oracle, balls_overlap
from wrsim.geometry import Window, Configuration, overlap_pairs


def random_configuration(rng, n, d, heavy=False):
    centers = rng.random((n, d)) * 10.0
    if heavy:
        radii = 0.3 * (1.0 - rng.random(n)) ** (-1.0 / 1.2)  # pareto-ish tail
    else:
        radii = rng.random(n) * 0.8
    return Configuration(centers, radii)


class TestBallsOverlap:
    """The scalar closed-ball predicate behind the test oracles."""

    def test_gap(self):
        assert not balls_overlap(([0.0], 1.0), ([3.0], 1.0))

    def test_tangency_counts(self):
        assert balls_overlap(([0.0], 1.0), ([2.0], 1.0))

    def test_2d_diagonal(self):
        # sqrt(2) ~ 1.414 <= 1.5
        assert balls_overlap(([0.0, 0.0], 1.0), ([1.0, 1.0], 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            balls_overlap(([0.0], 1.0), ([0.0, 0.0], 1.0))

    def test_symmetric_reflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = (rng.random(3), rng.random())
            b = (rng.random(3), rng.random())
            assert balls_overlap(a, b) == balls_overlap(b, a)
            if a[1] > 0:
                assert balls_overlap(a, a)

    def test_inside_window_separation(self):
        # a ball inside the window cannot meet a ball centred farther than
        # 2 r_max outside it, for any r_max bounding both radii
        rng = np.random.default_rng(5)
        w = Window([0, 0], [4, 4])
        for _ in range(100):
            r_max = rng.random() * 2.0 + 0.1
            x = w.lower + r_max + rng.random(2) * (w.sides - 2 * r_max)
            r = rng.random() * r_max
            if not (np.all(x - r >= w.lower) and np.all(x + r <= w.upper)):
                continue
            direction = rng.random(2) - 0.5
            direction /= np.linalg.norm(direction)
            far_center = np.array([4.0, 4.0]) + direction * (2.0 * r_max + 1e-9)
            far = (np.abs(far_center), rng.random() * r_max)
            if w.distance_to(far[0][None, :])[0] > 2 * r_max:
                assert not balls_overlap((x, r), far)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window([0, 0], [1, 0])
        with pytest.raises(ValueError):
            Window([0, 0], [1])

    @pytest.mark.parametrize("lower, upper", [
        ([0, 0], [math.inf, 1]), ([-math.inf, 0], [1, 1]),
        ([-math.inf, 0], [math.inf, 1]),
        ([0, -1e308], [1, 1e308]),  # finite bounds, a side overflows
        ([0, 0], [1e200, 1e200]),  # finite sides, the volume overflows
        ([0, 0], [1e-200, 1e-200])])  # the volume underflows to zero
    def test_non_finite_bounds_refused(self, lower, upper):
        # refused when built, not deep in a chain's sweep length
        with pytest.raises(ValueError, match="finite"):
            Window(lower, upper)

    def test_largest_finite_volume_accepted(self):
        assert Window([0, 0], [1e154, 1e154]).volume == pytest.approx(1e308)

    def test_volume(self):
        assert Window([0, 0], [2, 3]).volume == 6.0

    @pytest.mark.parametrize("lower, upper", [
        ([0.0], [7.5]), ([0, 0], [2, 3]), ([-1.5, 0.1, 2.0], [0.3, 0.7, 9.9]),
        ([0.0, 0.0, 0.0], [40.0, 0.5, 0.5]), ([0, 0], [1e154, 1e154])])
    def test_stored_sides_and_volume(self, lower, upper):
        # stored once, equal bit for bit to the expressions they replace
        w = Window(lower, upper)
        sides = np.asarray(upper, float) - np.asarray(lower, float)
        assert np.array_equal(w.sides, sides)
        assert w.volume == float(np.prod(sides))
        assert type(w.volume) is float

    def test_sides_read_only(self):
        w = Window([0, 0], [2, 3])
        with pytest.raises(ValueError, match="read-only"):
            w.sides[0] = 5.0

    def test_sample_points_inside_halfopen(self):
        w = Window([1, 2], [3, 5])
        pts = w.sample_points(np.random.default_rng(1), 500)
        assert np.all(pts >= w.lower) and np.all(pts < w.upper)

    def test_distance_to(self):
        w = Window([0, 0], [2, 2])
        d = w.distance_to(np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0]]))
        assert d[0] == 0.0
        assert d[1] == pytest.approx(1.0)
        assert d[2] == pytest.approx(math.sqrt(2.0))


class TestOverlapPairs:
    def test_fewer_than_two_balls(self):
        assert overlap_pairs(Configuration.empty(2)).shape == (0, 2)
        one = Configuration(np.array([[0.0, 0.0]]), np.array([1.0]))
        assert overlap_pairs(one).shape == (0, 2)

    @pytest.mark.parametrize("heavy", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_all_pairs_oracle(self, d, heavy):
        rng = np.random.default_rng(10 + d + 3 * heavy)
        for n in (2, 17, 64, 65, 150):
            cfg = random_configuration(rng, n, d, heavy=heavy)
            pairs = overlap_pairs(cfg)
            assert set(map(tuple, pairs.tolist())) == all_pairs_oracle(cfg)
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert np.array_equal(pairs[np.lexsort(pairs.T[::-1])], pairs)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((2, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            Configuration(np.zeros((1, 2)), np.array([-0.5]))

    @pytest.mark.parametrize("centers, radii, match", [
        (np.zeros(3), np.zeros(3), "centers"),
        (np.zeros((2, 2, 1)), np.zeros(2), "centers"),
        (np.zeros((2, 2)), np.zeros((2, 1)), "radii"),
        (np.zeros((2, 2)), np.zeros(3), "radii"),
        (np.zeros((0, 2)), np.zeros(1), "radii"),
        ([["a", "b"]], [1.0], "could not convert"),
        ([[0.0, 0.0]], ["x"], "could not convert"),
    ])
    def test_malformed_arrays_refused(self, centers, radii, match):
        # the public constructor checks every input; only the samplers'
        # own snapshots skip these checks
        with pytest.raises(ValueError, match=match):
            Configuration(centers, radii)

    @pytest.mark.parametrize("radii", [
        [math.nan], [0.5, math.nan], [math.nan, 0.5, 1.0], [1.0, -0.5],
        [-math.inf, 2.0], [0.3, 0.0, -1e-300]])
    def test_nan_and_negative_radii_refused(self, radii):
        with pytest.raises(ValueError, match="nonnegative"):
            Configuration(np.zeros((len(radii), 2)), np.array(radii))

    def test_zero_and_infinite_radii_accepted(self):
        cfg = Configuration(np.zeros((3, 1)), np.array([0.0, math.inf, 1.0]))
        assert len(cfg) == 3
        assert len(Configuration.empty(2)) == 0
