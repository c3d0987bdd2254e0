"""Property tests: the cluster chain's death split against from-scratch
labelling of the component left behind, on configurations that reach each of
its exits (no neighbour, one neighbour, all neighbours meeting the largest,
neighbours joined among themselves, and the BFS with real splits), including
exactly tangent balls where the closed-ball test decides."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import loaded_chain
from wrsim.components import connected_components
from wrsim.geometry import Configuration


@st.composite
def configurations(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["lattice", "dirac", "pareto", "uniform"]))
    if kind == "lattice":
        # half-integer centres and radii in {0, 1/4, 1/2, 1}: exact tangency
        # is common and every squared distance and radius sum is exact
        cells = draw(st.lists(st.integers(0, n // 2 + 3),
                              min_size=n * d, max_size=n * d))
        centers = 0.5 * np.array(cells, dtype=float)
        radii = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n)))
    else:
        side = draw(st.floats(1.0, 10.0))
        centers = np.array(draw(st.lists(
            st.floats(0.0, side), min_size=n * d, max_size=n * d)))
        if kind == "dirac":
            radii = np.full(n, draw(st.floats(0.05, 1.5)))
        elif kind == "pareto":
            # alpha 0.5 from xmin 0.1: one ball may meet all the others
            u = np.array(draw(st.lists(st.floats(1e-4, 1.0),
                                       min_size=n, max_size=n)))
            radii = 0.1 * u ** -2.0
        else:
            radii = np.array(draw(st.lists(st.floats(0.0, 1.5),
                                           min_size=n, max_size=n)))
    return Configuration(centers.reshape(n, d), np.asarray(radii, dtype=float))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configurations())
def test_death_pieces_partition_the_rest_of_the_component(cfg):
    chain = loaded_chain(cfg.centers, cfg.radii)
    lab = chain.labels[:chain.n]
    for j in range(len(cfg)):
        pieces, closed = chain._death_pieces(j)
        members = np.flatnonzero(lab == lab[j])
        rest = members[members != j]
        labeling = connected_components(
            Configuration(cfg.centers[rest], cfg.radii[rest]))
        assert pieces == labeling.n_cc
        assert len(closed) == max(pieces - 1, 0)
        groups = [sorted(g.tolist()) for g in closed]
        kept = set(rest.tolist()).difference(*groups)
        if pieces:
            groups.append(sorted(kept))
        want = [sorted(rest[labeling.labels == a].tolist())
                for a in np.unique(labeling.labels)]
        assert sorted(groups) == sorted(want)
