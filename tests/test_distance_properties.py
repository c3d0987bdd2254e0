"""The squared-distance kernel behind every closed-ball test: bit-equal to
the axis reduction ``((a - b) ** 2).sum(-1)`` for d = 1..7, on the
broadcast shapes the library uses, on non-contiguous and fancy-indexed
inputs, and at coordinate scales from 1e-3 to 1e3."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wrsim.components import connected_components
from wrsim.geometry import Configuration, _sq_dist, overlap_pairs


def coords(shape, scale):
    return arrays(np.float64, shape,
                  elements=st.floats(-1.0, 1.0, allow_nan=False)
                  ).map(lambda a: a * scale)


@st.composite
def operand_pairs(draw):
    d = draw(st.integers(1, 7))
    scale = 10.0 ** draw(st.integers(-3, 3))
    n, m, k, rows = (draw(st.integers(1, 6)) for _ in range(4))
    kind = draw(st.sampled_from(["point", "block", "rows", "fancy"]))
    if kind == "point":  # a scan: (n, d) against one centre (d,)
        return draw(coords((n, d), scale)), draw(coords((d,), scale))
    if kind == "block":  # BFS frontier against members: (k, 1, d), (m, d)
        return draw(coords((k, 1, d), scale)), draw(coords((m, d), scale))
    if kind == "rows":  # rejection rows against shared boundary balls
        return (draw(coords((rows, m, 1, d), scale)),
                draw(coords((1, 1, n, d), scale)))
    # pair candidates: fancy-indexed rows of a column-major (non-contiguous
    # rows) array against a strided view
    base = np.asfortranarray(draw(coords((n, d), scale)))
    i = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=8)))
    wide = draw(coords((len(i), 2 * d), scale))
    return base[i], wide[:, ::2]


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_sq_dist_bit_equals_axis_sum(pair):
    a, b = pair
    assert np.array_equal(_sq_dist(a, b), ((a - b) ** 2).sum(-1))


def test_tangent_balls_on_half_integer_lattice_stay_overlapping():
    # centre gaps (1.5, 2) and (1.5, 2, 0) have length exactly 2.5 = r_i + r_j
    for d in (2, 3):
        x = np.zeros((4, d))
        x[1, :2] = [1.5, 2.0]
        x[2, :2] = [3.0, 4.0]
        x[3, :2] = [4.5, 6.0]
        radii = np.array([1.0, 1.5, 1.0, 1.5])
        gap = _sq_dist(x[:-1], x[1:])
        assert np.array_equal(gap, np.full(3, 6.25))
        assert np.all(gap <= (radii[:-1] + radii[1:]) ** 2)
        cfg = Configuration(x + 0.5, radii)
        assert overlap_pairs(cfg).tolist() == [[0, 1], [1, 2], [2, 3]]
        assert connected_components(cfg).n_cc == 1
