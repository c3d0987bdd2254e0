"""Ragged rejection rounds against the padded round of ``helpers``: the same
authorized mask, the same balls row by row, nothing kept beyond the drawn
balls, and the same generator state afterwards.  q = 1..3, d = 1..3, free,
ordered and explicit boundaries, zero activities, Dirac, Pareto and
atom-mixture laws, and batches of one row, a few rows, just over one test
chunk and over two."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import reference_padded_round, shell_boundary
from wrsim.distributions import AtomMixtureRadius, DiracRadius, ParetoRadius
from wrsim.geometry import Window
from wrsim.sampling import (BoundaryCondition, GibbsParams, _AUTH_CHUNK,
                            _batch_authorized, build_boundary)

LAWS = [DiracRadius(0.4), ParetoRadius(1.2, 0.2),
        AtomMixtureRadius(0.3, ParetoRadius(0.5, 0.05))]
BATCHES = [1, 7, _AUTH_CHUNK + 1, 2 * _AUTH_CHUNK + 37]


@st.composite
def rounds(draw):
    q = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    window = Window.cube({1: 6.0, 2: 3.0, 3: 2.0}[d], d)
    kind = draw(st.sampled_from(["free", "ordered", "explicit"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "ordered":
        boundary = BoundaryCondition.ordered(draw(st.integers(1, q)), 1.0)
    elif kind == "explicit":
        boundary = BoundaryCondition.explicit(
            shell_boundary(q, window, np.random.default_rng(seed)))
    else:
        boundary = BoundaryCondition.free()
    params = GibbsParams(
        q=q, z=draw(st.lists(st.sampled_from([0.0, 0.3, 0.8]),
                             min_size=q, max_size=q)),
        laws=draw(st.lists(st.sampled_from(LAWS), min_size=q, max_size=q)),
        window=window, boundary=boundary)
    return params, draw(st.sampled_from(BATCHES)), seed


@settings(max_examples=150, deadline=None)
@given(rounds())
def test_ragged_round_matches_padded_reference(case):
    params, batch, seed = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    counts, ref_centers, ref_radii, ref_ok = reference_padded_round(
        params, batch, ref_rng, build_boundary(params, ref_rng))
    offsets, centers, radii, ok = _batch_authorized(
        params, batch, rng, build_boundary(params, rng))
    assert np.array_equal(ok, ref_ok)
    for i in range(params.q):
        # exactly the drawn balls, row after row, nothing padded
        filled = np.arange(ref_radii[i].shape[1]) < counts[i][:, None]
        assert np.array_equal(offsets[i], np.concatenate(([0], np.cumsum(counts[i]))))
        assert len(centers[i]) == len(radii[i]) == counts[i].sum()
        assert centers[i].shape[1:] == (params.window.dimension,)
        assert np.array_equal(centers[i], ref_centers[i][filled])
        assert np.array_equal(radii[i], ref_radii[i][filled])
    assert rng.bit_generator.state == ref_rng.bit_generator.state
