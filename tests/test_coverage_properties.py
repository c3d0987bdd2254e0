"""Coverage probes against the dense probe-by-ball oracle: zero radii,
coincident centres, spheres through probes, balls larger than the window,
heavy Pareto tails, and radii from zero to several probe-lattice cells, so
that balls fall on both sides of the split radius, in d = 1, 2, 3."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import covered_oracle
from wrsim.components import covered_fraction, probe_points
from wrsim.distributions import ParetoRadius
from wrsim.geometry import Configuration, Window
from wrsim.sampling import sample_poisson


def lattice_cell(window, probes):
    """Largest side of one probe-lattice cell, from the probes themselves."""
    pts = probe_points(window, probes)
    m = round(len(pts) ** (1.0 / window.dimension))
    assert m ** window.dimension == len(pts)
    return float(np.max(window.sides)) / m


def oracle_fraction(cfg, window, probes):
    return float(covered_oracle(cfg.centers, cfg.radii,
                                probe_points(window, probes)).mean())


@st.composite
def coverage_cases(draw):
    d = draw(st.integers(1, 3))
    side = draw(st.sampled_from([1.0, 4.0, 25.0]))
    stretch = draw(st.sampled_from([1.0, 0.5, 2.0]))
    sides = np.full(d, side)
    sides[0] *= stretch
    window = Window(np.zeros(d), sides)
    probes = draw(st.integers(1, 2500))
    pts = probe_points(window, probes)
    cell = lattice_cell(window, probes)
    n = draw(st.integers(0, 60))
    mode = draw(st.sampled_from(["lattice", "probes", "pareto"]))
    if mode == "lattice":
        # quarter-lattice centres (many coincide) and radii on both sides of
        # the cutoff, exactly at it, zero, and wider than the window
        cells = draw(st.lists(st.integers(-2, 10), min_size=n * d,
                              max_size=n * d))
        centers = 0.125 * side * np.array(cells, dtype=float).reshape(n, d)
        radii = np.array(draw(st.lists(st.sampled_from(
            [0.0, 0.5 * cell, cell, 4.0 * cell, 4.5 * cell, 9.0 * cell,
             3.0 * side * max(stretch, 1.0)]),
            min_size=n, max_size=n)))
    elif mode == "probes":
        # centres on probes, radii the distance to a probe a few indices on
        # (zero for itself): small balls with probes on their spheres, which
        # often hold d^2 == r^2 exactly
        at = np.array(draw(st.lists(st.integers(0, len(pts) - 1),
                                    min_size=n, max_size=n)), dtype=int)
        step = np.array(draw(st.lists(st.integers(0, 3), min_size=n,
                                      max_size=n)), dtype=int)
        centers = pts[at]
        radii = np.sqrt(((pts[(at + step) % len(pts)] - centers) ** 2)
                        .sum(axis=1))
    else:
        centers = np.array(draw(st.lists(
            st.floats(-0.2 * side, 1.2 * side, allow_nan=False),
            min_size=n * d, max_size=n * d))).reshape(n, d)
        alpha = draw(st.sampled_from([0.5, 1.2]))
        u = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n,
                                   max_size=n)))
        radii = 0.02 * side * u ** (-1.0 / alpha)
    cfg = Configuration(centers.reshape(n, d), np.asarray(radii, dtype=float))
    return cfg, window, probes


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(coverage_cases())
def test_covered_fraction_matches_oracle(case):
    cfg, window, probes = case
    assert covered_fraction(cfg, window, probes) == oracle_fraction(
        cfg, window, probes)


@pytest.mark.parametrize("d, probes", [(1, 97), (1, 1000), (2, 130),
                                       (2, 2047), (3, 700), (3, 1001)])
def test_mixed_radii_both_sides_of_cutoff(d, probes):
    window = Window(np.zeros(d), np.full(d, 10.0))
    cell = lattice_cell(window, probes)
    rng = np.random.default_rng(d * 10007 + probes)
    n = 80
    # centres only on x_0 in [-1, 4] and radii at most five cells (at most
    # 5.6 here), so probes near x_0 = 10 stay uncovered after both passes
    centers = 10.0 * rng.random((n, d))
    centers[:, 0] = -1.0 + 5.0 * rng.random(n)
    radii = np.where(rng.random(n) < 0.2, rng.uniform(4.0, 5.0, n) * cell,
                     rng.uniform(0.0, 4.0, n) * cell)
    radii[:3] = 4.0 * cell  # exactly at the cutoff: the small side
    assert (radii > 4.0 * cell).any() and (radii <= 4.0 * cell).any()
    cfg = Configuration(centers, radii)
    value = covered_fraction(cfg, window, probes)
    assert 0.0 < value < 1.0
    assert value == oracle_fraction(cfg, window, probes)


def test_ball_larger_than_window_with_small_balls():
    window = Window([0.0, 0.0], [5.0, 3.0])
    centers = np.array([[2.5, 1.5], [1.0, 1.0], [1.0, 1.0], [4.0, 2.0]])
    radii = np.array([20.0, 0.0, 0.3, 0.1])
    cfg = Configuration(centers, radii)
    assert covered_fraction(cfg, window, 600) == 1.0
    assert oracle_fraction(cfg, window, 600) == 1.0


@pytest.mark.parametrize("alpha", [0.5, 1.2])
def test_pareto_poisson_draws(alpha):
    window = Window.cube(20.0, 2)
    rng = np.random.default_rng(41)
    for _ in range(5):
        cfg = sample_poisson(window, 0.3, ParetoRadius(alpha, 0.1), rng)
        assert covered_fraction(cfg, window, 1500) == oracle_fraction(
            cfg, window, 1500)
