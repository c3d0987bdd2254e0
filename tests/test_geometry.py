import io
import math

import numpy as np
import pytest

from helpers import all_pairs_oracle
from wrsim.geometry import (MarkedPoint, Window, Configuration, balls_overlap,
                            ball_inside_window, overlap_pairs,
                            dump_configuration, load_configuration)


def random_configuration(rng, n, d, heavy=False):
    centers = rng.random((n, d)) * 10.0
    if heavy:
        radii = 0.3 * (1.0 - rng.random(n)) ** (-1.0 / 1.2)  # pareto-ish tail
    else:
        radii = rng.random(n) * 0.8
    return Configuration(centers, radii)


class TestBallsOverlap:
    def test_gap(self):
        assert not balls_overlap(MarkedPoint([0.0], 1.0), MarkedPoint([3.0], 1.0))

    def test_tangency_counts(self):
        assert balls_overlap(MarkedPoint([0.0], 1.0), MarkedPoint([2.0], 1.0))

    def test_2d_diagonal(self):
        # sqrt(2) ~ 1.414 <= 1.5
        assert balls_overlap(MarkedPoint([0.0, 0.0], 1.0),
                             MarkedPoint([1.0, 1.0], 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            balls_overlap(MarkedPoint([0.0], 1.0), MarkedPoint([0.0, 0.0], 1.0))

    def test_symmetric_reflexive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = MarkedPoint(rng.random(3), rng.random())
            b = MarkedPoint(rng.random(3), rng.random())
            assert balls_overlap(a, b) == balls_overlap(b, a)
            if a.radius > 0:
                assert balls_overlap(a, a)

    def test_inside_window_separation(self):
        # a ball inside the window cannot meet a ball centred farther than
        # 2 r_max outside it, for any r_max bounding both radii
        rng = np.random.default_rng(5)
        w = Window([0, 0], [4, 4])
        for _ in range(100):
            r_max = rng.random() * 2.0 + 0.1
            inside = MarkedPoint(
                w.lower + r_max + rng.random(2) * (w.sides - 2 * r_max),
                rng.random() * r_max)
            if not ball_inside_window(inside, w):
                continue
            direction = rng.random(2) - 0.5
            direction /= np.linalg.norm(direction)
            far_center = np.array([4.0, 4.0]) + direction * (2.0 * r_max + 1e-9)
            far = MarkedPoint(np.abs(far_center), rng.random() * r_max)
            if w.distance_to(far.center[None, :])[0] > 2 * r_max:
                assert not balls_overlap(inside, far)


class TestBallInsideWindow:
    def test_inside(self):
        w = Window([0, 0], [4, 4])
        assert ball_inside_window(MarkedPoint([2, 2], 1.0), w)

    def test_too_big(self):
        w = Window([0, 0], [4, 4])
        assert not ball_inside_window(MarkedPoint([2, 2], 2.5), w)

    def test_boundary_touch_allowed(self):
        w = Window([0.0], [4.0])
        assert ball_inside_window(MarkedPoint([1.0], 1.0), w)


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window([0, 0], [1, 0])
        with pytest.raises(ValueError):
            Window([0, 0], [1])

    def test_volume(self):
        assert Window([0, 0], [2, 3]).volume == 6.0

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


class TestDump:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        cfg = random_configuration(rng, 40, 3)
        buf = io.StringIO()
        dump_configuration(cfg, buf)
        text = buf.getvalue()
        assert len(text.splitlines()) == 40
        back = load_configuration(io.StringIO(text))
        assert np.array_equal(back.centers, cfg.centers)
        assert np.array_equal(back.radii, cfg.radii)

    def test_empty_needs_dimension(self):
        buf = io.StringIO()
        dump_configuration(Configuration.empty(2), buf)
        with pytest.raises(ValueError):
            load_configuration(io.StringIO(buf.getvalue()))
        back = load_configuration(io.StringIO(buf.getvalue()), d=2)
        assert len(back) == 0 and back.dimension == 2


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((2, 2)), np.array([1.0]))
        with pytest.raises(ValueError):
            Configuration(np.zeros((1, 2)), np.array([-0.5]))

    def test_from_balls(self):
        balls = [MarkedPoint([0.0, 1.0], 0.5), MarkedPoint([2.0, 2.0], 0.25)]
        cfg = Configuration.from_balls(balls)
        assert len(cfg) == 2
        assert cfg.ball(1).radius == 0.25
