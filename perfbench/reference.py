"""Reference computations that the benchmark checks wrsim's outputs against.

They are built on ``scipy.spatial.cKDTree`` and ``scipy.sparse.csgraph``
and import nothing from wrsim, so a check never compares the program with
itself.  Balls are closed, as in wrsim: two balls overlap iff
``|x_i - x_j|^2 <= (r_i + r_j)^2``.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree


def overlap_pairs(centers, radii):
    """Every pair ``i < j`` of overlapping balls, as an (m, 2) array.

    Up to 64 balls, every pair is tested.  Otherwise balls up to the
    90th-percentile radius ``h`` are paired by one k-d tree query at
    distance ``2h``, and each larger ball is compared with every ball
    directly, so a heavy radius tail cannot hide a pair.
    """
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = len(radii)
    if n <= 64:  # few balls: every pair directly
        hit = (((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
               <= (radii[:, None] + radii[None, :]) ** 2)
        return np.argwhere(np.triu(hit, k=1)).astype(np.int64)
    h = float(np.quantile(radii, 0.9))
    small = np.nonzero(radii <= h)[0]
    found = []
    if len(small) > 1:
        pairs = cKDTree(centers[small]).query_pairs(
            2.0 * h * (1.0 + 1e-9) + 1e-12, output_type="ndarray")
        found.append(np.stack([small[pairs[:, 0]], small[pairs[:, 1]]], axis=1))
    for b in np.nonzero(radii > h)[0]:
        hit = np.nonzero(((centers - centers[b]) ** 2).sum(axis=1)
                         <= (radii + radii[b]) ** 2)[0]
        hit = hit[hit != b]
        found.append(np.stack([np.full(len(hit), b), hit], axis=1))
    if not found:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(found).astype(np.int64)
    pairs = np.unique(np.sort(pairs, axis=1), axis=0)
    i, j = pairs[:, 0], pairs[:, 1]
    keep = (((centers[i] - centers[j]) ** 2).sum(axis=1)
            <= (radii[i] + radii[j]) ** 2)
    return pairs[keep]


def labels(centers, radii):
    """(n_cc, per-ball component label) of the overlap graph."""
    n = len(radii)
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    pairs = overlap_pairs(centers, radii)
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    return connected_components(graph, directed=False)


def crossing(centers, radii, lab, lower, upper, axis=0):
    """True iff one component touches both faces of the window on ``axis``."""
    if len(radii) == 0:
        return False
    low = centers[:, axis] - radii <= lower[axis]
    high = centers[:, axis] + radii >= upper[axis]
    return bool(set(lab[low].tolist()) & set(lab[high].tolist()))


def cross_colour_overlaps(centers, radii, colours):
    """Number of overlapping pairs whose two balls have distinct colours."""
    pairs = overlap_pairs(centers, radii)
    return int((colours[pairs[:, 0]] != colours[pairs[:, 1]]).sum())


def coverage(centers, radii, lower, upper, points, rng):
    """Monte Carlo covered fraction of the window from ``points`` uniform
    draws, with its binomial standard error."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    pts = lower + rng.random((points, len(lower))) * (upper - lower)
    covered = np.zeros(points, dtype=bool)
    if len(radii):
        hits = cKDTree(pts).query_ball_point(centers, radii)
        idx = [np.asarray(h, dtype=np.intp) for h in hits if h]
        if idx:
            covered[np.concatenate(idx)] = True
    p = float(covered.mean())
    return p, math.sqrt(max(p * (1.0 - p), 0.0) / points)


def same_balls(centers_a, radii_a, centers_b, radii_b):
    """True iff the two ball sets are equal as multisets, bit for bit."""
    a = np.column_stack([centers_a, radii_a])
    b = np.column_stack([centers_b, radii_b])
    if a.shape != b.shape:
        return False
    a = a[np.lexsort(a.T[::-1])]
    b = b[np.lexsort(b.T[::-1])]
    return bool(np.array_equal(a, b))


def mean_se_iid(x):
    x = np.asarray(x, dtype=float)
    return float(x.mean()), float(x.std(ddof=1)) / math.sqrt(len(x))


def mean_se_chain(x, batches=40):
    """Mean of a Markov chain series and its batch-means standard error
    (the series' effective sample size is ``var(x) / se^2``)."""
    x = np.asarray(x, dtype=float)
    size = len(x) // batches
    means = x[:size * batches].reshape(batches, size).mean(axis=1)
    return float(x.mean()), float(means.std(ddof=1)) / math.sqrt(batches)
