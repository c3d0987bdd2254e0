"""Shared brute-force oracles for the test suite.

These deliberately re-derive everything from first principles (dense pairwise
scans, BFS, raw quadrature) so they stay independent of the library paths
they check.
"""

import math

import numpy as np

from wrsim.geometry import balls_overlap


def bfs_ncc_oracle(config):
    """Component count and labels via BFS over the dense overlap graph."""
    n = len(config)
    if n == 0:
        return 0, np.empty(0, dtype=np.int64)
    diff = config.centers[:, None, :] - config.centers[None, :, :]
    d2 = (diff ** 2).sum(axis=-1)
    rsum = config.radii[:, None] + config.radii[None, :]
    adj = d2 <= rsum ** 2
    labels = -np.ones(n, dtype=np.int64)
    count = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        stack = [start]
        labels[start] = start
        while stack:
            i = stack.pop()
            for j in np.nonzero(adj[i])[0]:
                if labels[j] < 0:
                    labels[j] = start
                    stack.append(int(j))
        count += 1
    return count, labels


def all_pairs_oracle(config):
    """Set of index pairs (i, j), i < j, whose closed balls overlap, from
    :func:`wrsim.geometry.balls_overlap` on every pair."""
    n = len(config)
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if balls_overlap(config.ball(i), config.ball(j))}


def covered_oracle(centers, radii, probes):
    """Per probe, whether some closed ball holds it (``d^2 <= r^2``), from a
    dense probe-by-ball scan."""
    probes = np.asarray(probes, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if len(radii) == 0:
        return np.zeros(len(probes), dtype=bool)
    d2 = ((probes[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(-1)
    return (d2 <= radii[None, :] ** 2).any(axis=1)


def interval_bfs_oracle(starts, lengths):
    """Component count of a union of closed intervals, via the pairwise
    overlap graph and BFS (no sorting shortcut)."""
    starts = np.asarray(starts, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    n = len(starts)
    if n == 0:
        return 0
    ends = starts + lengths
    adj = (starts[:, None] <= ends[None, :]) & (starts[None, :] <= ends[:, None])
    seen = np.zeros(n, dtype=bool)
    count = 0
    for i in range(n):
        if seen[i]:
            continue
        count += 1
        stack = [i]
        seen[i] = True
        while stack:
            j = stack.pop()
            for m in np.nonzero(adj[j])[0]:
                if not seen[m]:
                    seen[m] = True
                    stack.append(int(m))
    return count


def moment_quadrature_oracle(law, d):
    """Numeric verdict on int r^d dQ = int d t^(d-1) S(t) dt via doubling
    cutoffs: vanishing tail contributions mean finite, persistent ones mean
    divergent.  Returns (value, finite)."""
    cutoffs = [1e3, 1e4, 1e5, 1e6]
    vals = []
    for c in cutoffs:
        npts = int(400 * math.log10(c / 1e-9))
        grid = np.geomspace(1e-9, c, npts)
        integrand = d * grid ** (d - 1) * np.asarray(law.survival(grid))
        vals.append(float(np.trapezoid(integrand, grid)))
    inc = np.diff(vals)
    if inc[-1] < 1e-3 * max(abs(vals[-1]), 1.0):
        return vals[-1], True
    ratio = inc[-1] / inc[-2]
    if ratio < 0.9:  # geometrically decaying tail: finite, extrapolate it
        return vals[-1] + inc[-1] * ratio / (1.0 - ratio), True
    return vals[-1], False


def coverage_quadrature_oracle(law):
    """Numeric verdict on int_1^oo exp(-int_1^u S(r) dr) du, same doubling
    scheme."""
    totals = []
    for cutoff in [1e3, 1e4, 1e5, 1e6]:
        u = np.geomspace(1.0, cutoff, 4000)
        s = np.asarray(law.survival(u))
        inner = np.concatenate([[0.0], np.cumsum(0.5 * (s[1:] + s[:-1]) * np.diff(u))])
        g = np.exp(-inner)
        totals.append(float(np.trapezoid(g, u)))
    inc = np.diff(totals)
    if inc[-1] <= 1e-4 * max(totals[-1], 1.0):
        return True
    return inc[-1] < 0.5 * inc[-2]


def ks_distance_to_cdf(sample, cdf):
    """sup |F_n - F| for a callable CDF, atoms handled via the left limits."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    pts = np.unique(x)
    f_right = np.asarray(cdf(pts), dtype=float)
    f_left = np.asarray(cdf(pts - 1e-12), dtype=float)
    fn_right = np.searchsorted(x, pts, side="right") / n
    fn_left = np.searchsorted(x, pts, side="left") / n
    return max(np.max(np.abs(fn_right - f_right)),
               np.max(np.abs(fn_left - f_left)))
