"""Bit-equality guard on the random stream of every draw path.

Each case runs a sampler at a fixed seed and compares a SHA-256 digest of
everything it returned, plus the generator's next double (which pins how
many draws the call consumed), with the value recorded when the guard was
written.  A refactor of radius, centre or shadow draws must leave all of
them unchanged; a deliberate stream change re-records them and says so in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from wrsim.analysis import phi_m
from wrsim.distributions import (AtomMixtureRadius, DiracRadius,
                                 ExponentialRadius, ParetoRadius,
                                 TransformedRadius, UniformRadius)
from wrsim.geometry import Window
from wrsim.sampling import (BoundaryCondition, GibbsParams,
                            RandomClusterChain, WidomRowlinsonChain,
                            sample_poisson, sample_wr_rejection_many)

NESTED = AtomMixtureRadius(0.3, TransformedRadius(ParetoRadius(1.2, 0.5), 0.1))


def _digest(rng, *values):
    """Digest of ``values`` (arrays and numbers, with their shapes) and of
    the generator's next double."""
    h = hashlib.sha256()
    for v in (*values, rng.random()):
        a = np.asarray(v, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:20]


def _mc_digest(rng, samples, attempts):
    arrays = [a for mc in samples for c in mc.configs
              for a in (c.centers, c.radii)]
    return _digest(rng, attempts, *arrays)


PHI_CASES = {
    "dirac-d2": (DiracRadius(0.3), 2.0, 2, "7456d6994a06b264fb55"),
    "nested-d3": (NESTED, 3.0, 3, "6af55fa036efe57e24f3"),
    "uniform-d1": (UniformRadius(0.1, 0.6), 1.5, 1, "ba4c18814c7f860f9bf2"),
}


@pytest.mark.parametrize("name", sorted(PHI_CASES))
def test_phi_m_monte_carlo_stream(name):
    law, m_side, d, want = PHI_CASES[name]
    rng = np.random.default_rng(11)
    p, se = phi_m(law, m_side, d, probes=3000, rng=rng, method="mc")
    assert _digest(rng, p, se) == want


POISSON_CASES = {
    "nested-d2": (Window([0.0, -1.0], [3.0, 2.0]), 4.0, NESTED, "6baa35f48fa2b1826baf"),
    "exponential-d1": (Window([-2.0], [5.0]), 3.0, ExponentialRadius(2.0), "0e5bb7102ee9c3322f7e"),
    "pareto-d3": (Window.cube(2.0, 3), 2.5, ParetoRadius(1.5, 0.1), "23bde8c2052f4915cbfd"),
}


@pytest.mark.parametrize("name", sorted(POISSON_CASES))
def test_sample_poisson_stream(name):
    window, z, law, want = POISSON_CASES[name]
    rng = np.random.default_rng(23)
    cfg = sample_poisson(window, z, law, rng)
    assert _digest(rng, cfg.centers, cfg.radii) == want


REJECTION_CASES = {
    "q2-ordered-batch64": (2, BoundaryCondition.ordered(1, 0.5), 64, "2f7aaa12913367e7b435"),
    "q3-free-batch1": (3, BoundaryCondition.free(), 1, "60c979ddc00e1dfc92ac"),
}


@pytest.mark.parametrize("name", sorted(REJECTION_CASES))
def test_rejection_stream(name):
    q, boundary, batch, want = REJECTION_CASES[name]
    params = GibbsParams(q=q, z=(0.4,) * q,
                         laws=(NESTED, UniformRadius(0.1, 0.4),
                               DiracRadius(0.2))[:q],
                         window=Window([0.0, 0.0], [2.0, 1.5]),
                         boundary=boundary)
    rng = np.random.default_rng(31)
    samples, attempts = sample_wr_rejection_many(params, 6, rng, batch=batch)
    assert _mc_digest(rng, samples, attempts) == want


def _wr_ordered_q3():
    params = GibbsParams(q=3, z=(1.2, 0.8, 1.0),
                         laws=(NESTED, ParetoRadius(1.5, 0.1),
                               DiracRadius(0.15)),
                         window=Window([0.0, 0.0], [4.0, 3.0]),
                         boundary=BoundaryCondition.ordered(2, 0.6))
    return WidomRowlinsonChain(params, np.random.default_rng(41))


def _wr_large_q2():
    # 10000 proposals per sweep: two blocks, conflict lists in the first
    params = GibbsParams.symmetric(2, 2.0, UniformRadius(0.05, 0.3),
                                   Window.cube(50.0, 2))
    return WidomRowlinsonChain(params, np.random.default_rng(43))


def _cluster_q2():
    return RandomClusterChain(Window([0.0, 0.0, 0.0], [3.0, 2.0, 2.0]), 2.0,
                              ExponentialRadius(3.0), 2.0,
                              np.random.default_rng(47))


CHAIN_CASES = {
    "wr-q3-ordered": (_wr_ordered_q3, 10, "14d0b7218b7f382c81b4"),
    "wr-q2-two-blocks": (_wr_large_q2, 1, "107eab932d8901a17d68"),
    "cluster-q2": (_cluster_q2, 20, "8b6e6f07f22f3a0049e2"),
}


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_chain_sweep_stream(name):
    make, sweeps, want = CHAIN_CASES[name]
    chain = make().run(sweeps)
    state = chain.state()
    configs = state.configs if hasattr(state, "configs") else (state,)
    extra = getattr(chain, "n_components", 0)
    assert _digest(chain.rng, chain.proposals, chain.accepted, extra,
                   *[a for c in configs for a in (c.centers, c.radii)]) == want
