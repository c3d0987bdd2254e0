"""Connected components of germ-grain structures and derived observables.

Overlap-graph labelling (dense propagation for a few balls, scipy's csgraph
for many), finite-window crossing as the percolation proxy, probe-based
covered fraction, and the per-colour census with the
monochromatic/polychromatic flag.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csgraph

from .geometry import Configuration, meets, meets_any, overlap_pairs

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
    adj = meets(centers[:, None, :], radii[:, None], centers, radii)
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

    One jittered point per cell of a regular m^d grid, m the smallest side
    with m^d >= ``probes``; the jitter seed is a module constant so repeated
    calls give identical probes.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    d = window.dimension
    m = max(1, round(probes ** (1.0 / d)))
    while m ** d < probes:
        m += 1
    idx = np.stack(np.meshgrid(*([np.arange(m)] * d), indexing="ij"), axis=-1)
    idx = idx.reshape(-1, d).astype(float)
    jitter = np.random.default_rng(_PROBE_JITTER_SEED).random(idx.shape)
    return window.lower + (idx + jitter) * (window.sides / m)


def covered_fraction(config, window, probes=2048):
    """Fraction of the probe lattice covered by some closed ball: the probes
    as balls of radius 0, through :func:`~wrsim.geometry.meets_any`."""
    pts = probe_points(window, probes)
    return float(meets_any(Configuration(pts, np.zeros(len(pts))),
                           config).mean())


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
