"""Shared brute-force oracles and fixtures for the test suite.

These deliberately re-derive everything from first principles (dense pairwise
scans, BFS, raw quadrature) so they stay independent of the library paths
they check.
"""

import math

import numpy as np

from wrsim import sampling
from wrsim.components import connected_components
from wrsim.distributions import DiracRadius, ParetoRadius, UniformRadius
from wrsim.geometry import Configuration, Window, meets
from wrsim.sampling import (BoundaryCondition, GibbsParams,
                            MultiTypeConfiguration, RejectionBudgetError,
                            build_boundary, is_authorized,
                            sample_multitype_poisson)


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


def balls_overlap(a, b):
    """Closed-ball intersection test on two (centre, radius) pairs:
    |x_a - x_b| <= r_a + r_b."""
    (ca, ra), (cb, rb) = a, b
    ca, cb = np.asarray(ca, dtype=float), np.asarray(cb, dtype=float)
    if ca.size != cb.size:
        raise ValueError(f"dimension mismatch: {ca.size} vs {cb.size}")
    gap = ca - cb
    return float(gap @ gap) <= (float(ra) + float(rb)) ** 2


def all_pairs_oracle(config):
    """Set of index pairs (i, j), i < j, whose closed balls overlap, from
    :func:`balls_overlap` on every pair."""
    n = len(config)
    c, r = config.centers, config.radii
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if balls_overlap((c[i], r[i]), (c[j], r[j]))}


def shell_boundary(q, window, rng, per_color=3):
    """Authorized explicit boundary: up to ``per_color`` balls of each
    colour, radii in [0, 0.8), centred outside the window but within 1 of
    it; a candidate meeting a kept ball of another colour is dropped."""
    d = window.dimension
    kept = [[] for _ in range(q)]
    for _ in range(64 * per_color):
        x = window.lower - 1.0 + rng.random(d) * (window.sides + 2.0)
        r = 0.8 * rng.random()
        i = int(rng.integers(q))
        if (len(kept[i]) == per_color or window.contains_points(x)[0] or any(
                np.sum((x - y) ** 2) <= (r + s) ** 2
                for j in range(q) if j != i for y, s in kept[j])):
            continue
        kept[i].append((x, r))
    return MultiTypeConfiguration(
        [Configuration(np.array([x for x, _ in k]).reshape(-1, d),
                       np.array([r for _, r in k], dtype=float))
         for k in kept])


ORACLE_LAWS = [DiracRadius(0.4), UniformRadius(0.0, 0.6),
               ParetoRadius(0.5, 0.05), ParetoRadius(1.2, 0.2)]


def oracle_params(d, law, q, boundary, seed, scale=1.0):
    """Symmetric chain parameters, z = 0.8, on a cube of volume 6 to 9 (its
    side times ``scale``); ``boundary`` is "free", "ordered" (colour q,
    shell 1) or "explicit" (a :func:`shell_boundary` drawn from ``seed``)."""
    window = Window.cube(scale * {1: 6.0, 2: 3.0, 3: 2.0}[d], d)
    cond = BoundaryCondition.free()
    if boundary == "ordered":
        cond = BoundaryCondition.ordered(q, 1.0)
    elif boundary == "explicit":
        cond = BoundaryCondition.explicit(
            shell_boundary(q, window, np.random.default_rng(seed)))
    return GibbsParams.symmetric(q, 0.8, law, window, boundary=cond)


def _blocks(per_sweep, sweeps):
    """Block lengths of ``sweeps`` sweeps of ``per_sweep`` proposals: each
    sweep cut into blocks of ``sampling._BLOCK``, its last block shorter
    when the block length does not divide ``per_sweep``."""
    for _ in range(sweeps):
        left = per_sweep
        while left > 0:
            yield min(left, sampling._BLOCK)
            left -= sampling._BLOCK


def reference_wr_chain(params, sweeps, rng):
    """The birth-death kernel of :mod:`wrsim.sampling`'s docstring, run from
    empty for ``sweeps`` sweeps with a dense scan per birth; returns (state,
    proposals, accepted).

    Draws come in the order the kernel states: an ordered boundary's shell,
    then per block of k proposals the k colours (only when q > 1), k
    birth/death coins, k centres (``window.sample_points``), k radii from
    each colour's law, k death picks and k acceptance uniforms; proposal t
    reads entry t of each.  A death takes ball floor(pick * n_i) of its
    colour, and each colour keeps its balls in swap-remove order: a death
    moves the colour's last ball into the freed slot.
    """
    window, d, q = params.window, params.window.dimension, params.q
    outside = [(c.centers, c.radii) for c in build_boundary(params, rng).configs]
    centers = [[] for _ in range(q)]
    radii = [[] for _ in range(q)]
    proposals = accepted = 0
    for k in _blocks(max(1, math.ceil(params.expected_count)), sweeps):
        colours = rng.integers(q, size=k) if q > 1 else np.zeros(k, dtype=int)
        coins = rng.random(k)
        xs = window.sample_points(rng, k)
        rs = [params.laws[c].sample(rng, k) for c in range(q)]
        picks = rng.random(k)
        uniforms = rng.random(k)
        for t in range(k):
            i = int(colours[t])
            n_i = len(radii[i])
            proposals += 1
            if coins[t] < 0.5:
                x, r = xs[t], float(rs[i][t])
                blocked = False
                for j in range(q):
                    if j == i:
                        continue
                    for c, rad in ((np.array(centers[j]).reshape(-1, d),
                                    np.array(radii[j])), outside[j]):
                        d2 = ((c - x) ** 2).sum(axis=1)
                        blocked |= bool((d2 <= (rad + r) ** 2).any())
                if not blocked and (uniforms[t]
                                    < params.z[i] * window.volume / (n_i + 1)):
                    centers[i].append(x)
                    radii[i].append(r)
                    accepted += 1
            elif n_i > 0:
                j = math.floor(picks[t] * n_i)
                if uniforms[t] < n_i / (params.z[i] * window.volume):
                    last_c, last_r = centers[i].pop(), radii[i].pop()
                    if j < n_i - 1:
                        centers[i][j], radii[i][j] = last_c, last_r
                    accepted += 1
    state = MultiTypeConfiguration(
        [Configuration(np.array(c).reshape(-1, d), np.array(r, dtype=float))
         for c, r in zip(centers, radii)])
    return state, proposals, accepted


def reference_block_moves(window, z, law, q, moves, rng, start=None):
    """The cluster chain's block move of :mod:`wrsim.sampling`'s docstring,
    run from ``start`` (empty when None) for ``moves`` moves with labels
    from :func:`bfs_ncc_oracle` and a dense thinning test; returns (state,
    balls drawn, balls kept, N_cc of the state).

    Per move: one uniform per component, components in order of their
    smallest member (the oracle's labels), a component active when its
    uniform is below 1/q; then the Poisson count, the centres
    (``window.sample_points``) and the radii of the draw.  The new state is
    the balls of inactive components in their old order, then the draws
    that meet none of them, in draw order.
    """
    if start is None:
        start = Configuration.empty(window.dimension)
    centers, radii = start.centers, start.radii
    drawn = kept = 0
    for _ in range(moves):
        n_cc, labels = bfs_ncc_oracle(Configuration(centers, radii))
        roots = sorted(set(labels.tolist()))
        active = dict(zip(roots, rng.random(n_cc) < 1.0 / q))
        stay = np.array([not active[a] for a in labels.tolist()], dtype=bool)
        centers, radii = centers[stay], radii[stay]
        count = rng.poisson(z * window.volume)
        xs = window.sample_points(rng, count)
        rs = law.sample(rng, count)
        free = np.array([not (((centers - x) ** 2).sum(axis=1)
                               <= (radii + r) ** 2).any()
                         for x, r in zip(xs, rs)], dtype=bool)
        drawn += count
        kept += int(free.sum())
        centers = np.vstack([centers, xs[free]])
        radii = np.concatenate([radii, rs[free]])
    state = Configuration(centers, radii)
    return state, drawn, kept, bfs_ncc_oracle(state)[0]


def loaded_chain(window, z, law, q, start, rng):
    """A cluster chain whose state is ``start``, labelled from scratch, as
    if a move had just left it there."""
    chain = sampling.RandomClusterChain(window, z, law, q, rng)
    chain._state = start
    chain._labeling = connected_components(chain._state)
    return chain


def reference_cluster_chain(window, z, law, q, sweeps, rng):
    """A birth-death chain for the cluster measure, an independent MCMC
    oracle for the block move: the one-colour kernel of
    :func:`reference_wr_chain` with each ratio times q^(delta N_cc), run
    from empty for ``sweeps`` sweeps; yields (state, N_cc of the state)
    after each sweep.

    Per block of k proposals it draws k coins, k centres, k radii, k death
    picks and k acceptance uniforms.  delta N_cc is the change of
    :func:`bfs_ncc_oracle` between the state and the proposed state; a
    death of ball floor(pick * n) moves the last ball into the freed slot.
    """
    d = window.dimension
    per_sweep = max(1, math.ceil(z * window.volume))
    centers, radii = np.empty((0, d)), np.empty(0)
    n_cc = 0
    for _ in range(sweeps):
        for k in _blocks(per_sweep, 1):
            coins = rng.random(k)
            xs = window.sample_points(rng, k)
            rs = law.sample(rng, k)
            picks = rng.random(k)
            uniforms = rng.random(k)
            for t in range(k):
                n = len(radii)
                if coins[t] < 0.5:
                    new_c = np.vstack([centers, xs[t]])
                    new_r = np.append(radii, float(rs[t]))
                    ratio = z * window.volume / (n + 1)
                elif n > 0:
                    j = math.floor(picks[t] * n)
                    order = np.arange(n - 1)
                    if j < n - 1:
                        order[j] = n - 1
                    new_c, new_r = centers[order], radii[order]
                    ratio = n / (z * window.volume)
                else:
                    continue
                new_cc, _ = bfs_ncc_oracle(Configuration(new_c, new_r))
                if uniforms[t] < ratio * q ** (new_cc - n_cc):
                    centers, radii, n_cc = new_c, new_r, new_cc
        yield Configuration(centers, radii), n_cc


def reference_rejection(params, rng, max_attempts=100000):
    """First authorized multi-type Poisson draw, via plain rejection.

    Returns (configuration, attempts used).  The acceptance frequency is an
    unbiased estimate of the partition function Z given the boundary.  Raises
    :class:`RejectionBudgetError` when the budget runs out.  For ordered
    boundaries a fresh shell is drawn per call, before the first attempt.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    outside = build_boundary(params, rng)
    for attempt in range(1, max_attempts + 1):
        mc = sample_multitype_poisson(params, rng)
        if is_authorized(mc, outside):
            return mc, attempt
    raise RejectionBudgetError(max_attempts)


def reference_padded_round(params, batch, rng, outside):
    """A vectorised rejection round on padded storage: colour i's ``batch``
    rows as (batch, m_i, d) centres and (batch, m_i) radii, m_i the round's
    largest count, the empty slots with radius NaN; returns (counts,
    centres, radii, authorized mask).

    Draws per colour, in this order: the counts, then one ``batch * m_i``
    centre draw, then one (batch, m_i) radius draw.  Rows are tested
    ``sampling._AUTH_CHUNK`` at a time, each at the full width m_i.
    """
    window = params.window
    counts, centers, radii = [], [], []
    for i in range(params.q):
        n_i = rng.poisson(params.z[i] * window.volume, batch)
        m = int(n_i.max()) if batch else 0
        counts.append(n_i)
        centers.append(window.sample_points(rng, batch * m)
                       .reshape(batch, m, window.dimension))
        r = params.laws[i].sample(rng, (batch, m))
        radii.append(np.where(np.arange(m) < n_i[:, None], r, np.nan))
    bad = np.zeros(batch, dtype=bool)
    boundary = [(c.centers, c.radii) for c in outside.configs]
    for lo in range(0, batch, sampling._AUTH_CHUNK):
        rows = slice(lo, lo + sampling._AUTH_CHUNK)
        for i in range(params.q):
            ci, ri = centers[i][rows, :, None], radii[i][rows, :, None]
            for j in range(i + 1, params.q):
                bad[rows] |= meets(ci, ri, centers[j][rows, None],
                                   radii[j][rows, None]).any(axis=(1, 2))
            for j in range(params.q):
                bc, br = boundary[j]
                if j != i and len(bc):
                    bad[rows] |= meets(ci, ri, bc, br).any(axis=(1, 2))
    return counts, centers, radii, ~bad


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


def interval_cover_oracle(starts, lengths, y):
    """Right end of the covered run starting at y in a union of closed
    intervals [s, s + l]: extend ``cover`` to max(e) over the intervals with
    s <= cover <= e until it stops changing (no sorting)."""
    starts = np.asarray(starts, dtype=float)
    ends = starts + np.asarray(lengths, dtype=float)
    cover = y
    while True:
        hit = (starts <= cover) & (cover <= ends)
        reach = max(cover, float(ends[hit].max())) if hit.any() else cover
        if reach == cover:
            return cover
        cover = reach


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
