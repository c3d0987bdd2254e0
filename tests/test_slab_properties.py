"""Rightward shadows of 1D and 2D slabs against interval oracles that do not
sort: zero-length shadows, coincident starts and exactly touching
intervals, for the component count, right coverage and the edge flags."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import interval_bfs_oracle, interval_cover_oracle
from wrsim.distributions import DiracRadius
from wrsim.geometry import Configuration
from wrsim.slab import (SlabParams, coverage_gap, merged_intervals, n_cc_right,
                        reaches_right_edge, right_covered)

K = 0.5


@st.composite
def shadow_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([4.0, 10.0]))
    params = SlabParams(n=n, k=K, d=d, z=1.0, law=DiracRadius(1.0))
    m = draw(st.integers(0, 25))
    # starts on a quarter grid so that many coincide; radii at and below
    # the 2D threshold k give zero-length shadows
    starts = 0.25 * np.array(draw(st.lists(st.integers(0, int(4 * n)),
                                           min_size=m, max_size=m)), float)
    radii = np.array(draw(st.lists(st.one_of(
        st.sampled_from([0.0, 0.3, K, 0.75, 1.0, 2.5, n]),
        st.floats(0.0, n, allow_nan=False)), min_size=m, max_size=m)))
    lengths = np.sqrt(np.maximum(radii * radii - (d - 1) * K * K, 0.0))
    # some shadows start exactly where an earlier one ends
    for j in range(1, m):
        i = draw(st.one_of(st.none(), st.integers(0, j - 1)))
        if i is not None and starts[i] + lengths[i] <= n:
            starts[j] = starts[i] + lengths[i]
    centers = np.zeros((m, d))
    centers[:, 0] = starts
    centers[:, 1:] = K / 2
    return Configuration(centers, radii), params, starts, lengths


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(shadow_cases())
def test_shadows_match_oracles(case):
    cfg, params, starts, lengths = case
    n = params.n
    assert n_cc_right(cfg, params) == interval_bfs_oracle(starts, lengths)
    ends = starts + lengths
    for y in {0.0, n / 2, n, *starts, *ends[ends <= n]}:
        cover = interval_cover_oracle(starts, lengths, y)
        want = None if cover >= n else cover
        assert coverage_gap(cfg, y, params) == want
        assert right_covered(cfg, y, params) == (want is None)
    for edge in (n, n / 2):
        assert reaches_right_edge(cfg, params, edge=edge) == bool(
            np.any(ends >= edge))
    assert reaches_right_edge(cfg, params) == bool(np.any(ends >= n))
    # the slab-renewal CLI reads both edge flags off the last interval's end,
    # the largest shadow end, and -inf for an empty slab
    intervals = merged_intervals(cfg, params)
    end = intervals[-1, 1] if len(intervals) else -np.inf
    if len(cfg):
        assert end == ends.max()
    for edge in (n, n / 2):
        assert (end >= edge) == reaches_right_edge(cfg, params, edge=edge)
