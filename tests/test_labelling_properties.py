"""Property tests: pair finding and component labelling against the
brute-force oracles on the edge cases of the closed-ball convention (zero
radii, coincident centres, exact tangency) and on heavy Pareto tails, for
configurations on both sides of the dense/sparse labelling switch."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import all_pairs_oracle, bfs_ncc_oracle
from wrsim.geometry import Configuration, overlap_pairs
from wrsim.components import connected_components


@st.composite
def configurations(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 90))
    if draw(st.booleans()):
        # centres on a half-integer lattice with radii in {0, 1/4, 1/2, 1}:
        # coincident centres and exactly tangent balls are common, and every
        # squared distance and radius sum is exact in binary
        cells = draw(st.lists(st.integers(0, 3 * n // 2 + 2),
                              min_size=n * d, max_size=n * d))
        centers = 0.5 * np.array(cells, dtype=float)
        radii = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              min_size=n, max_size=n))
    else:
        # uniform centres, Pareto radii (alpha 0.5: one ball may cover all)
        centers = np.array(draw(st.lists(
            st.floats(0.0, 20.0, allow_nan=False), min_size=n * d,
            max_size=n * d)))
        alpha = draw(st.sampled_from([0.5, 1.2]))
        u = np.array(draw(st.lists(st.floats(1e-6, 1.0),
                                   min_size=n, max_size=n)))
        radii = 0.1 * u ** (-1.0 / alpha)
    return Configuration(centers.reshape(n, d), np.asarray(radii, dtype=float))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configurations())
def test_pairs_and_labels_match_oracles(cfg):
    pairs = overlap_pairs(cfg)
    assert set(map(tuple, pairs.tolist())) == all_pairs_oracle(cfg)
    # (i, j), i < j, in lexicographic order: the WR chain's conflict lists
    # read each ball's pairs as one run
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert pairs.tolist() == sorted(pairs.tolist())

    lab = connected_components(cfg)
    n_oracle, labels_oracle = bfs_ncc_oracle(cfg)
    assert lab.n_cc == n_oracle
    # the oracle labels each component by its smallest member index
    assert np.array_equal(lab.labels, labels_oracle)
    for a in np.unique(lab.labels):
        assert lab.members(a).min() == a
