"""Property tests: one block move of the cluster chain from an arbitrary
state against the dense reference move, on configurations whose components
are paths, stars, chains of tangent balls and single huge balls; the move
keeps whole components only, so every labelling error of the state shows."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import bfs_ncc_oracle, loaded_chain, reference_block_moves
from wrsim.distributions import UniformRadius
from wrsim.geometry import Configuration, Window


@st.composite
def configurations(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
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
@given(configurations(), st.sampled_from([1.0, 1.7, 2.0, 3.0]),
       st.integers(0, 2 ** 32 - 1))
def test_move_from_any_state_matches_reference(cfg, q, seed):
    # two moves, so the second starts from a state the chain labelled itself
    window, z, law = Window.cube(4.0, cfg.dimension), 0.3, UniformRadius(0.0, 0.6)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chain = loaded_chain(window, z, law, q, cfg, rng).run(2)
    ref, drawn, kept, n_cc = reference_block_moves(window, z, law, q, 2,
                                                   ref_rng, start=cfg)
    assert (chain.proposals, chain.accepted) == (drawn, kept)
    got = chain.state()
    assert got.centers.tobytes() == ref.centers.tobytes()
    assert got.radii.tobytes() == ref.radii.tobytes()
    assert chain.state_n_cc() == n_cc == bfs_ncc_oracle(got)[0]
    assert rng.random() == ref_rng.random()
