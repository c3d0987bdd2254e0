"""Connected components of germ-grain structures and derived observables.

Overlap-graph labelling (dense propagation for a few balls, scipy's csgraph
for many), finite-window crossing as the percolation proxy, probe-based
covered fraction, and the per-colour census with the
monochromatic/polychromatic flag.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph
from scipy.spatial import cKDTree

from .geometry import _sq_dist, overlap_pairs

__all__ = [
    "ComponentLabeling",
    "ColorCensus",
    "connected_components",
    "crossing_exists",
    "covered_fraction",
    "probe_points",
    "color_census",
]

_PROBE_JITTER_SEED = 0x5EEDC0DE  # fixed so coverage numbers are reproducible
_DENSE_MAX = 64  # largest configuration labelled by dense propagation
_LARGE_BALL_CELLS = 4  # radius, in probe cells, above which a ball is scanned


@dataclass(frozen=True)
class ComponentLabeling:
    """Per-ball component ids, canonicalised to the smallest member index."""

    labels: np.ndarray
    n_cc: int

    def members(self, label):
        return np.nonzero(self.labels == label)[0]


@dataclass(frozen=True)
class ColorCensus:
    counts: np.ndarray
    monochromatic: bool
    dominant_fraction: float


def connected_components(config):
    """Label the overlap-graph components of a configuration.

    Two balls share a label iff a chain of pairwise-overlapping balls joins
    them.  Labels are the smallest ball index of each component.  Up to 64
    balls the labels come from min-label propagation on the dense adjacency
    matrix, which costs less than building a sparse graph; above, from
    ``scipy.sparse.csgraph`` on :func:`overlap_pairs`.
    """
    n = len(config)
    if n <= _DENSE_MAX:
        labels = _dense_labels(config.centers, config.radii)
    else:
        pairs = overlap_pairs(config)
        graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                           shape=(n, n))
        _, ids = csgraph.connected_components(graph, directed=False)
        _, first = np.unique(ids, return_index=True)
        labels = first[ids]
    n_cc = int(np.count_nonzero(labels == np.arange(n)))
    return ComponentLabeling(labels, n_cc)


def _dense_labels(centers, radii):
    """Smallest member index per ball, by min-label propagation with pointer
    jumping over the closed-ball adjacency (self-loops included)."""
    n = len(radii)
    adj = (_sq_dist(centers[:, None, :], centers[None, :, :])
           <= (radii[:, None] + radii[None, :]) ** 2)
    labels = np.arange(n)
    while True:
        new = np.where(adj, labels, n).min(axis=1, initial=n)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def crossing_exists(labeling, config, window, axis):
    """True iff one component touches both opposite window faces along the
    axis (a ball touches a face iff centre +- radius reaches it)."""
    if axis < 0 or axis >= config.dimension:
        raise ValueError(f"axis {axis} out of range for d={config.dimension}")
    if len(config) == 0:
        return False
    low = config.centers[:, axis] - config.radii <= window.lower[axis]
    high = config.centers[:, axis] + config.radii >= window.upper[axis]
    touching_low = set(labeling.labels[low].tolist())
    touching_high = set(labeling.labels[high].tolist())
    return bool(touching_low & touching_high)


def probe_points(window, probes):
    """Deterministic stratified probe lattice with >= ``probes`` points.

    One jittered point per cell of a regular m^d grid; the jitter seed is a
    module constant so repeated calls give identical probes.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    d = window.dimension
    m = _lattice_side(d, probes)
    rng = np.random.default_rng(_PROBE_JITTER_SEED)
    idx = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"), axis=-1)
    idx = idx.reshape(-1, d).astype(float)
    jitter = rng.random(idx.shape)
    cell = window.sides / m
    return window.lower + (idx + jitter) * cell


def _lattice_side(d, probes):
    """Smallest m with m^d >= probes: cells per side of the probe lattice."""
    m = max(1, round(probes ** (1.0 / d)))
    while m ** d < probes:
        m += 1
    return m


def covered_fraction(config, window, probes=2048):
    """Fraction of the probe lattice covered by some closed ball.

    Balls of radius above four lattice cells (the largest side of
    ``window.sides / m``) go first, largest first, each tested directly
    against the probes still uncovered; that pass stops once every probe is
    covered.  Every other ball finds its probes by one k-d tree query over
    the uncovered probes at its radius, inflated so that a probe on the
    sphere survives rounding, and one exact closed-ball test
    ``d^2 <= r^2`` keeps the true hits.
    """
    pts = probe_points(window, probes)
    if len(config) == 0:
        return 0.0
    centers, radii = config.centers, config.radii
    cutoff = _LARGE_BALL_CELLS * float(
        np.max(window.sides / _lattice_side(window.dimension, probes)))
    covered = np.zeros(len(pts), dtype=bool)
    large = np.flatnonzero(radii > cutoff)
    for i in large[np.argsort(-radii[large])]:
        rem = np.flatnonzero(~covered)
        if len(rem) == 0:
            return 1.0
        hit = _sq_dist(pts[rem], centers[i]) <= radii[i] ** 2
        covered[rem[hit]] = True
    rem = np.flatnonzero(~covered)
    small = np.flatnonzero(radii <= cutoff)
    if len(rem) and len(small):
        found = cKDTree(pts[rem]).query_ball_point(
            centers[small], radii[small] * (1.0 + 1e-9) + 1e-12)
        lengths = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        probe = rem[np.fromiter(itertools.chain.from_iterable(found),
                                dtype=np.intp, count=int(lengths.sum()))]
        ball = np.repeat(small, lengths)
        hit = _sq_dist(pts[probe], centers[ball]) <= radii[ball] ** 2
        covered[probe[hit]] = True
    return float(covered.mean())


def color_census(mc):
    """Per-colour counts, the dominant colour's share and the monochromatic
    flag.

    Empty multi-type configurations count as monochromatic, with dominant
    fraction 1 by convention.
    """
    counts = np.array([len(c) for c in mc.configs], dtype=np.int64)
    total = int(counts.sum())
    mono = int((counts > 0).sum()) <= 1
    dominant = 1.0 if total == 0 else float(counts.max()) / total
    return ColorCensus(counts=counts, monochromatic=mono,
                       dominant_fraction=dominant)
