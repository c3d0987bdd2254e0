"""Spatial primitives for germ-grain models.

Axis-aligned windows, ball configurations as centre and radius arrays, the
closed-ball predicate :func:`meets` behind every overlap test, and the two
k-d tree queries: overlapping pairs within one ball set, and which balls of
one set meet some ball of another.

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
    """Axis-aligned box ``[lower, upper]`` with finite positive volume."""

    __slots__ = ("lower", "upper")

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
        lower.setflags(write=False)
        upper.setflags(write=False)
        self.lower = lower
        self.upper = upper

    @classmethod
    def cube(cls, side, d):
        return cls(np.zeros(d), np.full(d, float(side)))

    @property
    def dimension(self):
        return self.lower.size

    @property
    def sides(self):
        return self.upper - self.lower

    @property
    def volume(self):
        return float(np.prod(self.sides))

    def sample_points(self, rng, n):
        """n i.i.d. uniform points; half-open box semantics via U[0,1)."""
        u = rng.random((n, self.dimension))
        return self.lower + u * self.sides

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

    ``centers`` has shape (n, d) and ``radii`` shape (n,).  Treated as
    immutable once built; samplers emit fresh instances.
    """

    __slots__ = ("centers", "radii")

    def __init__(self, centers, radii):
        centers = np.asarray(centers, dtype=float)
        radii = np.asarray(radii, dtype=float)
        if centers.ndim != 2:
            raise ValueError("centers must have shape (n, d)")
        if radii.shape != (centers.shape[0],):
            raise ValueError("radii must have shape (n,) matching centers")
        if radii.size and not np.all(radii >= 0.0):
            raise ValueError("radii must be nonnegative")
        centers.setflags(write=False)
        radii.setflags(write=False)
        self.centers = centers
        self.radii = radii

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
    s = (a[..., 0] - b[..., 0]) ** 2
    for k in range(1, a.shape[-1]):
        s += (a[..., k] - b[..., k]) ** 2
    return s


def meets(ca, ra, cb, rb):
    """Whether closed balls (ca, ra) and (cb, rb) meet, broadcasting; every
    closed-ball test goes through here, and a NaN radius meets nothing."""
    return _sq_dist(ca, cb) <= (ra + rb) ** 2


# radius quantile h splitting balls into k-d tree queries and direct scans
_SPLIT_QUANTILE = 0.9


def _inflated(distance):
    """A k-d tree query distance stretched so that exact tangency survives
    the tree's rounding; the exact closed-ball test runs afterwards."""
    return distance * (1.0 + 1e-9) + 1e-12


def overlap_pairs(config):
    """All unordered index pairs (i, j), i < j, of overlapping balls, in
    lexicographic order.

    Balls of radius at most ``h``, the 90th-percentile radius, are paired by
    one k-d tree query at distance ``2h``, inflated so that exact tangency
    survives rounding; each larger ball is compared with every ball.  That
    candidate set contains every overlapping pair whatever the radius tail,
    and the exact test :func:`meets` keeps the true ones.
    """
    n = len(config)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    centers, radii = config.centers, config.radii
    h = float(np.quantile(radii, _SPLIT_QUANTILE))
    small = np.flatnonzero(radii <= h)
    found = cKDTree(centers[small]).query_pairs(_inflated(2.0 * h),
                                                output_type="ndarray")
    keys = [small[found[:, 0]] * n + small[found[:, 1]]]
    for b in np.flatnonzero(radii > h):
        near = np.flatnonzero(meets(centers, radii, centers[b], radii[b]))
        near = near[near != b]
        keys.append(np.minimum(near, b) * n + np.maximum(near, b))
    keys = np.unique(np.concatenate(keys))
    i, j = keys // n, keys % n
    keep = meets(centers[i], radii[i], centers[j], radii[j])
    return np.stack([i[keep], j[keep]], axis=1)


def meets_any(a, b):
    """Mask over the balls of ``a``: True where the closed ball meets some
    closed ball of ``b``.

    The balls of ``b`` above ``h``, its 90th-percentile radius, go first,
    largest first, each tested directly against the balls of ``a`` in its
    strip ``|x_0 - c_0| <= r + max r_a``, until every ball of ``a`` is hit.
    A k-d tree over the other balls of ``b`` is queried by each unhit ball
    of ``a`` at ``r_a + h``.  Strip and query are inflated so that exact
    tangency survives rounding; the exact test :func:`meets` keeps the true
    hits.
    """
    hit = np.zeros(len(a), dtype=bool)
    if len(a) == 0 or len(b) == 0:
        return hit
    (ca, ra), (cb, rb) = (a.centers, a.radii), (b.centers, b.radii)
    h = float(np.quantile(rb, _SPLIT_QUANTILE))
    large = np.flatnonzero(rb > h)
    order = np.argsort(ca[:, 0])
    x0, reach = ca[order, 0], ra.max()
    for j in large[np.argsort(-rb[large])]:
        if hit.all():
            return hit
        w = _inflated(rb[j] + reach)
        near = order[np.searchsorted(x0, cb[j, 0] - w):
                     np.searchsorted(x0, cb[j, 0] + w, side="right")]
        hit[near] |= meets(ca[near], ra[near], cb[j], rb[j])
    rem = np.flatnonzero(~hit)
    small = np.flatnonzero(rb <= h)
    found = cKDTree(cb[small]).query_ball_point(ca[rem], _inflated(ra[rem] + h))
    i = np.repeat(rem, [len(f) for f in found])
    j = small[np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp,
                          count=len(i))]
    hit[i[meets(ca[i], ra[i], cb[j], rb[j])]] = True
    return hit
