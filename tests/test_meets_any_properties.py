"""``geometry.meets_any`` against the dense all-pairs mask: d = 1..3, Dirac,
Pareto(0.5) and Pareto(1.2) radii, zero radii, tangent balls on a
half-integer lattice, balls of ``b`` on both sides of its split radius, and
an empty ``a`` or ``b``."""

import numpy as np
from hypothesis import given, settings, strategies as st

from wrsim.geometry import Configuration, meets_any


def dense_meets(a, b):
    """Per ball of ``a``, whether some ball of ``b`` meets it, from the full
    (n_a, n_b) distance matrix."""
    if len(b) == 0:
        return np.zeros(len(a), dtype=bool)
    d2 = ((a.centers[:, None, :] - b.centers[None, :, :]) ** 2).sum(-1)
    return (d2 <= (a.radii[:, None] + b.radii[None, :]) ** 2).any(axis=1)


@st.composite
def ball_sets(draw, d, side):
    n = draw(st.integers(0, 40))
    mode = draw(st.sampled_from(["lattice", "dirac", "pareto", "zero"]))
    if mode == "lattice":
        # half-integer centres and quarter-integer radii: tangency is exact
        cells = draw(st.lists(st.integers(-2, 2 * int(side) + 2),
                              min_size=n * d, max_size=n * d))
        centers = 0.5 * np.array(cells, dtype=float)
        radii = np.array(draw(st.lists(st.sampled_from(
            [0.0, 0.25, 0.5, 1.0, 1.5, 4.0]), min_size=n, max_size=n)))
    else:
        centers = np.array(draw(st.lists(
            st.floats(-0.2 * side, 1.2 * side, allow_nan=False),
            min_size=n * d, max_size=n * d)))
        if mode == "dirac":
            radii = np.full(n, draw(st.sampled_from([0.1, 0.5, 2.0])))
        elif mode == "pareto":
            alpha = draw(st.sampled_from([0.5, 1.2]))
            u = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n,
                                       max_size=n)))
            radii = 0.02 * side * u ** (-1.0 / alpha)
        else:
            radii = np.zeros(n)
    return Configuration(centers.reshape(n, d), np.asarray(radii, dtype=float))


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    side = draw(st.sampled_from([2.0, 10.0]))
    return draw(ball_sets(d, side)), draw(ball_sets(d, side))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_meets_any_matches_dense_mask(case):
    a, b = case
    got = meets_any(a, b)
    assert got.dtype == bool and got.shape == (len(a),)
    assert np.array_equal(got, dense_meets(a, b))


def test_large_balls_cover_everything_before_the_tree():
    # two balls of b above its 90th-percentile radius hold every ball of a
    rng = np.random.default_rng(3)
    a = Configuration(10.0 * rng.random((50, 2)), 0.1 * rng.random(50))
    radii = np.full(20, 0.01)
    radii[:2] = [20.0, 30.0]
    b = Configuration(10.0 * rng.random((20, 2)), radii)
    assert meets_any(a, b).all()
    assert not meets_any(a, Configuration(b.centers[2:] + 100.0,
                                          radii[2:])).any()
