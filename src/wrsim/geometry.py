"""Spatial primitives for germ-grain models.

Axis-aligned windows, ball configurations as centre and radius arrays, the
closed-ball predicate :func:`meets` behind every overlap test, and the two
neighbour queries: overlapping pairs within one ball set
(:func:`overlap_pairs`, which also builds the hard-core chain's per-block
conflict lists), and which balls of one set meet some ball of another
(:func:`meets_any`).  Both put the balls up to the 90th-percentile radius in
one k-d tree and test each larger ball directly against the balls in its
strip along the first axis, vectorised over groups of strips of bounded
size.

Conventions
-----------
Balls are closed: two balls overlap iff the distance between their centres is
<= the sum of their radii, so tangent balls count as overlapping.  Windows are
half-open for uniform point sampling but containment checks use closed
inequalities; both distinctions sit on Lebesgue-null events.

All values are immutable after construction and safe to share across threads.
"""

import itertools
import math

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["Window", "Configuration", "meets", "overlap_pairs", "meets_any"]


class Window:
    """Axis-aligned box ``[lower, upper]`` with finite positive volume.

    ``sides`` (``upper - lower``, read-only) and ``volume`` are stored at
    construction, since samplers read both for every draw."""

    __slots__ = ("lower", "upper", "sides", "volume")

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1 or lower.size < 1:
            raise ValueError("lower/upper must be equal-length vectors")
        if not np.all(lower < upper):
            raise ValueError("window requires lower[i] < upper[i] on every axis")
        # in Python floats, which overflow to inf without a warning; an
        # infinite bound makes a side, and so the volume, infinite or NaN
        if not 0 < math.prod(u - l for l, u in zip(lower.tolist(),
                                                   upper.tolist())) < math.inf:
            raise ValueError("window bounds, sides and volume must be finite, "
                             "and the volume positive")
        sides = upper - lower
        for a in (lower, upper, sides):
            a.setflags(write=False)
        self.lower, self.upper, self.sides = lower, upper, sides
        self.volume = float(np.prod(sides))

    @classmethod
    def cube(cls, side, d):
        return cls(np.zeros(d), np.full(d, float(side)))

    @property
    def dimension(self):
        return self.lower.size

    def sample_points(self, rng, n):
        """n i.i.d. uniform points; half-open box semantics via U[0,1).  One
        expression, so that the uniforms are freed before the sum is made."""
        return self.lower + rng.random((n, self.dimension)) * self.sides

    def contains_points(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((points >= self.lower) & (points <= self.upper), axis=1)

    def distance_to(self, points):
        """Euclidean distance from each point to the box (0 inside)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        excess = np.maximum(self.lower - points, 0.0)
        excess = np.maximum(excess, points - self.upper)
        return np.sqrt((excess ** 2).sum(axis=1))

    def __repr__(self):
        return f"Window({self.lower.tolist()}, {self.upper.tolist()})"


class Configuration:
    """A finite set of closed balls stored as arrays.

    ``centers`` has shape (n, d) and ``radii`` shape (n,), both read-only.
    The constructor checks its inputs; samplers emit fresh instances through
    :meth:`_frozen`, which does not check them again.
    """

    __slots__ = ("centers", "radii")

    def __init__(self, centers, radii):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must have shape (n, d)")
        if radii.shape != (centers.shape[0],):
            raise ValueError("radii must have shape (n,) matching centers")
        if radii.size and not np.minimum.reduce(radii) >= 0.0:
            raise ValueError("radii must be nonnegative")
        centers.setflags(write=False)
        radii.setflags(write=False)
        self.centers = centers
        self.radii = radii

    @classmethod
    def _frozen(cls, centers, radii):
        """A configuration on arrays the library has just made: fresh
        float64 arrays of shapes (n, d) and (n,) that nothing else holds,
        with nonnegative radii.  They are frozen, not copied or checked."""
        centers.setflags(write=False)
        radii.setflags(write=False)
        config = object.__new__(cls)
        config.centers = centers
        config.radii = radii
        return config

    @classmethod
    def empty(cls, d):
        return cls(np.empty((0, d)), np.empty(0))

    @property
    def dimension(self):
        return self.centers.shape[1]

    def __len__(self):
        return self.centers.shape[0]

    def __repr__(self):
        return f"Configuration(n={len(self)}, d={self.dimension})"


def _sq_dist(a, b):
    """Squared distances over the last axis, broadcasting over the others.

    Sums the per-coordinate squares in coordinate order.  NumPy reduces a last
    axis shorter than 8 in the same order, so this equals
    ``((a - b) ** 2).sum(-1)`` bit for bit when d <= 7, at a fraction of the
    cost for small d; from d = 8 on NumPy sums pairwise and the last bit may
    differ.
    """
    s = np.square(np.subtract(a[..., 0], b[..., 0]))
    for k in range(1, a.shape[-1]):
        s += np.square(np.subtract(a[..., k], b[..., k]))
    return s


def meets(ca, ra, cb, rb):
    """Whether closed balls (ca, ra) and (cb, rb) meet, broadcasting; every
    closed-ball test goes through here, and a NaN radius meets nothing.
    Called with ufuncs directly, which on a few balls costs less than the
    operators; ``np.square`` is what ``** 2`` runs on arrays."""
    return np.less_equal(_sq_dist(ca, cb), np.square(np.add(ra, rb)))


# radius quantile h splitting balls into k-d tree queries and direct scans
_SPLIT_QUANTILE = 0.9
_CHUNK = 1 << 12  # strip candidates a direct scan tests together


def _inflated(distance):
    """A k-d tree query distance stretched so that exact tangency survives
    the tree's rounding; the exact closed-ball test runs afterwards."""
    return distance * (1.0 + 1e-9) + 1e-12


def _strip_meets(ca, ra, cb, rb, w):
    """The meeting pairs (i, j) of a ball i of a and a ball j of b whose
    centres lie within ``w[j]`` of each other along the first axis (j's
    strip, found by bisection on a sorted once).  Yielded in groups of whole
    strips holding about ``_CHUNK`` candidates, a longer strip being a group
    of its own, so that memory stays bounded and a caller may stop early."""
    order = np.argsort(ca[:, 0])
    sa, sr = ca.take(order, axis=0), ra[order]  # a in first-axis order
    lo = np.searchsorted(sa[:, 0], cb[:, 0] - w)
    size = np.searchsorted(sa[:, 0], cb[:, 0] + w, side="right") - lo
    end = np.cumsum(size)
    start = 0
    while start < len(size):
        base = int(end[start] - size[start])  # candidates before the group
        stop = max(start + 1, int(np.searchsorted(end, base + _CHUNK,
                                                  side="right")))
        n = size[start:stop]
        j = np.repeat(np.arange(start, stop), n)
        pos = np.arange(len(j)) + np.repeat(lo[start:stop] + base
                                            - (end[start:stop] - n), n)
        near = meets(sa.take(pos, axis=0), sr[pos], cb.take(j, axis=0), rb[j])
        yield order[pos[near]], j[near]
        start = stop


def overlap_pairs(config):
    """All unordered index pairs (i, j), i < j, of overlapping balls, in
    lexicographic order.

    Balls of radius at most ``h``, the 90th-percentile radius, are paired by
    one k-d tree query at distance ``2h``.  Each larger ball is tested
    directly against the small balls in its strip ``|x_0 - c_0| <= r + h``
    of the first axis, and against the large balls that rank below it by
    (radius, index) in its strip ``|x_0 - c_0| <= 2r``.  So every pair is a
    candidate exactly once, whatever the radius tail, and the strips are
    tested in groups of about ``_CHUNK`` candidates, so memory stays
    bounded.  Tree distance and strips are inflated so that exact tangency
    survives rounding, and the exact test :func:`meets` keeps the true
    pairs.
    """
    n = len(config)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    centers, radii = config.centers, config.radii
    h = float(np.quantile(radii, _SPLIT_QUANTILE))
    small = np.flatnonzero(radii <= h)
    cs, rs = centers.take(small, axis=0), radii[small]
    found = cKDTree(cs).query_pairs(_inflated(2.0 * h), output_type="ndarray")
    keys = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(found), _CHUNK):
        i, j = found[lo:lo + _CHUNK].T
        keep = meets(cs.take(i, axis=0), rs[i], cs.take(j, axis=0), rs[j])
        keys.append(small[i[keep]] * n + small[j[keep]])
    large = np.flatnonzero(radii > h)
    if len(large):
        cl, rl = centers.take(large, axis=0), radii[large]
        for i, j in _strip_meets(cs, rs, cl, rl, _inflated(rl + h)):
            i, j = small[i], large[j]
            keys.append(np.minimum(i, j) * n + np.maximum(i, j))
        rank = np.empty(len(large), dtype=np.int64)
        rank[np.lexsort((large, rl))] = np.arange(len(large))
        for i, j in _strip_meets(cl, rl, cl, rl, _inflated(2.0 * rl)):
            below = rank[i] < rank[j]
            i, j = large[i[below]], large[j[below]]
            keys.append(np.minimum(i, j) * n + np.maximum(i, j))
    keys = np.concatenate(keys)
    keys.sort()
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def meets_any(a, b):
    """Mask over the balls of ``a``: True where the closed ball meets some
    closed ball of ``b``.

    The balls of ``b`` above ``h``, its 90th-percentile radius, go first,
    largest first, each tested directly against the balls of ``a`` in its
    strip ``|x_0 - c_0| <= r + max r_a``, in groups of strips of about
    ``_CHUNK`` candidates, until every ball of ``a`` is hit.  A k-d tree
    over the other balls of ``b`` is queried by each unhit ball of ``a`` at
    ``r_a + h``.  Strip and query are inflated so that exact tangency
    survives rounding; the exact test :func:`meets` keeps the true hits.
    """
    hit = np.zeros(len(a), dtype=bool)
    if len(a) == 0 or len(b) == 0:
        return hit
    (ca, ra), (cb, rb) = (a.centers, a.radii), (b.centers, b.radii)
    h = float(np.quantile(rb, _SPLIT_QUANTILE))
    large = np.flatnonzero(rb > h)
    if len(large):
        large = large[np.argsort(-rb[large])]
        cl, rl = cb.take(large, axis=0), rb[large]
        for i, _ in _strip_meets(ca, ra, cl, rl, _inflated(rl + ra.max())):
            hit[i] = True
            if hit.all():
                return hit
    rem = np.flatnonzero(~hit)
    small = np.flatnonzero(rb <= h)
    found = cKDTree(cb[small]).query_ball_point(ca[rem], _inflated(ra[rem] + h))
    i = np.repeat(rem, [len(f) for f in found])
    j = small[np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp,
                          count=len(i))]
    hit[i[meets(ca.take(i, axis=0), ra[i], cb.take(j, axis=0), rb[j])]] = True
    return hit
