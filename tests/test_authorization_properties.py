"""``is_authorized`` against a scalar all-pairs check built on the
closed-ball predicate of ``helpers``: d = 1..3, q = 2 and 3, centres on a
half-integer lattice (so tangent balls occur exactly) or anywhere, zero
radii, with and without a materialised boundary."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import balls_overlap
from wrsim.geometry import Configuration
from wrsim.sampling import MultiTypeConfiguration, is_authorized

COORDS = st.one_of(st.integers(-2, 8).map(lambda k: k / 2.0),
                   st.floats(-1.0, 4.0))
RADII = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                  st.floats(0.0, 2.0))


def colours(draw, q, d, max_balls):
    configs = []
    for _ in range(q):
        n = draw(st.integers(0, max_balls))
        centers = [draw(st.lists(COORDS, min_size=d, max_size=d))
                   for _ in range(n)]
        radii = [draw(RADII) for _ in range(n)]
        configs.append(Configuration(np.array(centers).reshape(n, d),
                                     np.array(radii, dtype=float)))
    return MultiTypeConfiguration(configs)


@st.composite
def cases(draw):
    d = draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3]))
    return colours(draw, q, d, 5), colours(draw, q, d, 3)


def scalar_authorized(mc, outside=None):
    """No two balls of distinct colours meet, boundary balls counted with
    their colour, by the scalar predicate on every pair."""
    layers = [mc] if outside is None else [mc, outside]
    balls = [(i, (c, r)) for layer in layers
             for i, cfg in enumerate(layer.configs)
             for c, r in zip(cfg.centers, cfg.radii)]
    return not any(i != j and balls_overlap(a, b)
                   for (i, a), (j, b) in itertools.combinations(balls, 2))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_is_authorized_matches_scalar_check(case):
    mc, outside = case
    free = scalar_authorized(mc)
    assert is_authorized(mc) == free
    with_outside = scalar_authorized(mc, outside)
    assert is_authorized(mc, outside) == with_outside
