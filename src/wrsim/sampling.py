"""Samplers for the multi-type hard-core model and its random-cluster form.

The finite-volume target on a window L with activity vector z, radius laws Q_i
and boundary condition w is the multi-type Poisson process conditioned on the
authorized event A (no two balls of distinct colours overlap, boundary balls
included):

    density  1_A(w' u w) / Z   against  (x) Poisson(z_i L^d (x) Q_i).

Two exact-in-the-limit routes are provided and cross-validated: plain
rejection against the multi-type Poisson draw, and a birth-death Metropolis
chain.  The colour-blind route goes through the continuum random cluster
measure q^{N_cc} Poisson(z, Q) / Z plus uniform colouring of components
(Fortuin-Kasteleyn representation); both must agree in distribution for
symmetric parameters.

Birth-death kernel (one proposal):
  * a colour i uniformly, then birth or death with probability 1/2;
  * birth: a uniform centre and a radius from Q_i, accepted when a uniform
    falls below z_i |L| / (n_i + 1), and rejected outright when the result
    would not stay authorized;
  * death: ball floor(u n_i) of colour i for a uniform u, accepted when a
    uniform falls below n_i / (z_i |L|).
One sweep is max(1, ceil(sum_i z_i |L|)) proposals, whose draws are made in
blocks of at most ``_BLOCK`` proposals.  A block of k proposals draws, in
this order: k colours (only when there is more than one colour), k
birth/death coins, k centres, k radii from each colour's law, k death picks
and k acceptance uniforms, every one of them used or not; proposal t reads
entry t of each.  Nothing is drawn ahead of a sweep, so code that shares
the generator between sweeps sees it as the sweeps left it.  The cluster
chain is the one-colour kernel with each ratio multiplied by
q^(delta N_cc), where delta N_cc is the exact component-count change of
the proposal, obtained from the affected component only.

The hard-core chain checks a block's births by a direct scan or against
per-block conflict lists (see :class:`WidomRowlinsonChain`), whichever its
cost estimate finds cheaper; both give the same decisions, so the choice
moves no draw and no output byte.

A chain is strictly sequential; parallelise by running independent replicas
with independently seeded generators.  Emitted configurations are immutable
snapshots, safe to share across threads.
"""

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Configuration, Window, meets, meets_any, overlap_pairs
from .components import connected_components

__all__ = [
    "MultiTypeConfiguration",
    "BoundaryCondition",
    "GibbsParams",
    "RejectionBudgetError",
    "sample_poisson",
    "sample_multitype_poisson",
    "is_authorized",
    "build_boundary",
    "sample_wr_rejection_many",
    "authorized_count",
    "WidomRowlinsonChain",
    "RandomClusterChain",
    "fk_coloring",
    "effective_sample_size",
    "dump_multitype_configuration",
    "load_multitype_configuration",
    "write_run_metadata",
]

_BATCH = 8192  # multi-type Poisson draws per vectorised rejection round
_AUTH_CHUNK = 512  # rejection rows tested together, bounding the pair arrays
_BLOCK = 8192  # chain proposals whose draws are made together, in arrays
# costs, in listed pairs, that choose a WR block's birth check: a direct
# scan per birth, per other colour and per present ball, and the fixed part
# of building the block's conflict lists
_SCAN_COLOUR = 80.0
_SCAN_BALL = 1 / 15
_LIST_FIXED = 6000.0


class RejectionBudgetError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget; carries the
    number of attempts used (signals Z too small, switch to the chain)."""

    def __init__(self, attempts):
        super().__init__(f"no authorized draw in {attempts} attempts")
        self.attempts = attempts


class MultiTypeConfiguration:
    """One configuration per colour, colours indexed 1..q."""

    __slots__ = ("configs",)

    def __init__(self, configs):
        configs = tuple(configs)
        if not configs:
            raise ValueError("need at least one colour")
        d = configs[0].dimension
        if any(c.dimension != d for c in configs):
            raise ValueError("all colours must share the ambient dimension")
        self.configs = configs

    @classmethod
    def empty(cls, q, d):
        return cls([Configuration.empty(d) for _ in range(q)])

    @property
    def q(self):
        return len(self.configs)

    @property
    def dimension(self):
        return self.configs[0].dimension

    def counts(self):
        return np.array([len(c) for c in self.configs], dtype=np.int64)

    def total_count(self):
        return int(self.counts().sum())

    def merged(self):
        """Colour-blind projection: (Configuration, 1-based colour array)."""
        configs = self.configs
        colors = np.repeat(np.arange(1, len(configs) + 1),
                           [len(c.radii) for c in configs])
        return Configuration._frozen(
            np.concatenate([c.centers for c in configs]),
            np.concatenate([c.radii for c in configs])), colors

    def __repr__(self):
        return f"MultiTypeConfiguration(q={self.q}, counts={self.counts().tolist()})"


@dataclass(frozen=True)
class BoundaryCondition:
    """Free, ordered (a one-colour shell), or an explicit outside
    configuration whose centres must lie outside the window."""

    kind: str
    color: int | None = None
    shell: float = 0.0
    outside: MultiTypeConfiguration | None = None

    @classmethod
    def free(cls):
        return cls("free")

    @classmethod
    def ordered(cls, color, shell):
        if shell < 0:
            raise ValueError("shell thickness must be nonnegative")
        if color < 1:
            raise ValueError("colors are 1-based")
        return cls("ordered", color=int(color), shell=float(shell))

    @classmethod
    def explicit(cls, outside):
        return cls("explicit", outside=outside)


FREE = BoundaryCondition.free()


@dataclass(frozen=True)
class GibbsParams:
    """(q, activities, radius laws, window, boundary condition)."""

    q: int
    z: tuple
    laws: tuple
    window: Window
    boundary: BoundaryCondition = FREE

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(float(v) for v in self.z))
        object.__setattr__(self, "laws", tuple(self.laws))
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if len(self.z) != self.q or len(self.laws) != self.q:
            raise ValueError("z and laws must have length q")
        if any(not 0 <= v < math.inf for v in self.z):
            raise ValueError("activities must be finite and nonnegative")
        if self.boundary.kind == "ordered" and not (1 <= self.boundary.color <= self.q):
            raise ValueError("ordered boundary color out of range")

    @classmethod
    def symmetric(cls, q, z, law, window, boundary=FREE):
        return cls(q=q, z=(z,) * q, laws=(law,) * q, window=window,
                   boundary=boundary)

    @property
    def expected_count(self):
        return float(sum(self.z)) * self.window.volume


def sample_poisson(window, z, law, rng):
    """Poisson process with intensity z Lebesgue (x) Q on the window."""
    if z < 0:
        raise ValueError("activity must be nonnegative")
    n = rng.poisson(z * window.volume)
    centers = window.sample_points(rng, n)
    return Configuration(centers, law.sample(rng, n))


def sample_multitype_poisson(params, rng):
    """q independent Poisson draws, one per colour."""
    return MultiTypeConfiguration(
        [sample_poisson(params.window, params.z[i], params.laws[i], rng)
         for i in range(params.q)])


def is_authorized(mc, boundary=None):
    """True iff no two balls of distinct colours overlap (boundary balls are
    merged into their colours; same-colour overlap never disqualifies).

    ``boundary`` is a materialised outside configuration
    (:func:`build_boundary`) or None.
    """
    merged = mc.configs
    if boundary is not None:
        if boundary.q != mc.q:
            raise ValueError(f"boundary has {boundary.q} colours, not {mc.q}")
        merged = [Configuration(np.concatenate([c.centers, b.centers]),
                                np.concatenate([c.radii, b.radii]))
                  for c, b in zip(merged, boundary.configs)]
    return not any(meets_any(a, b).any()
                   for i, a in enumerate(merged) for b in merged[i + 1:])


def build_boundary(params, rng):
    """Materialise the boundary condition as outside-window balls.

    Ordered(i, shell): Poisson draw of colour i on the shell
    (window (+) shell) minus window, keeping only balls whose closed ball
    reaches the window.  Explicit boundaries are validated (centres outside
    the window, no two balls of distinct colours overlapping) and passed
    through.  Free (or shell 0) gives an empty boundary.
    """
    b = params.boundary
    d = params.window.dimension
    if b.kind == "free":
        return MultiTypeConfiguration.empty(params.q, d)
    if b.kind == "explicit":
        if b.outside.q != params.q:
            raise ValueError("explicit boundary must have q colours")
        for cfg in b.outside.configs:
            if len(cfg) and np.any(params.window.contains_points(cfg.centers)):
                raise ValueError("explicit boundary centers must lie outside the window")
        if not is_authorized(MultiTypeConfiguration.empty(params.q, d), b.outside):
            raise ValueError("explicit boundary balls of distinct colours overlap")
        return b.outside
    if b.kind == "ordered":
        if b.shell == 0.0:
            return MultiTypeConfiguration.empty(params.q, d)
        i = b.color - 1
        grown = Window(params.window.lower - b.shell,
                       params.window.upper + b.shell)
        draw = sample_poisson(grown, params.z[i], params.laws[i], rng)
        keep = (~params.window.contains_points(draw.centers)
                & (params.window.distance_to(draw.centers) <= draw.radii))
        configs = [Configuration.empty(d) for _ in range(params.q)]
        configs[i] = Configuration(draw.centers[keep], draw.radii[keep])
        return MultiTypeConfiguration(configs)
    raise ValueError(f"unknown boundary kind {b.kind!r}")


def _batch_authorized(params, batch, rng, outside):
    """Vectorised rejection round: draw ``batch`` independent multi-type
    Poisson configurations and return the padded arrays plus the authorized
    mask.  Padding slots carry radius NaN, which meets nothing."""
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
    for lo in range(0, batch, _AUTH_CHUNK):
        rows = slice(lo, lo + _AUTH_CHUNK)
        for i in range(params.q):
            # (rows, m_i, 1) against (rows, 1, m_j) for colour j's row balls,
            # and against (m_j,) for its boundary balls, shared by every row
            ci, ri = centers[i][rows, :, None], radii[i][rows, :, None]
            for j in range(i + 1, params.q):
                bad[rows] |= meets(ci, ri, centers[j][rows, None],
                                   radii[j][rows, None]).any(axis=(1, 2))
            for j in range(params.q):
                bc, br = boundary[j]
                if j != i and len(bc):
                    bad[rows] |= meets(ci, ri, bc, br).any(axis=(1, 2))
    return counts, centers, radii, ~bad


def _extract_mc(params, counts, centers, radii, row):
    # the first n_i slots of every padded row are the valid balls
    configs = []
    for i in range(params.q):
        n = int(counts[i][row])
        configs.append(Configuration._frozen(centers[i][row, :n].copy(),
                                             radii[i][row, :n].copy()))
    return MultiTypeConfiguration(configs)


def _rejection_rounds(params, attempts, rng, batch):
    """Successive :func:`_batch_authorized` rounds of at most ``batch``
    draws, ``attempts`` draws in all, against one boundary drawn first."""
    outside = build_boundary(params, rng)
    for done in range(0, attempts, batch):
        yield _batch_authorized(params, min(batch, attempts - done), rng,
                                outside)


def sample_wr_rejection_many(params, n_samples, rng, max_attempts=10 ** 8,
                             batch=_BATCH):
    """Vectorised rejection sampler: ``n_samples`` i.i.d. authorized draws.

    Returns (samples, attempts used); the acceptance frequency is an
    unbiased estimate of the partition function Z given the boundary.  All
    draws share one boundary (a fresh shell per call for ordered
    boundaries).  With ``batch=1`` each attempt draws the colours one after
    the other, exactly as a one-at-a-time rejection loop would.  Raises
    :class:`RejectionBudgetError` when the budget runs out.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    samples, attempts = [], 0
    for counts, centers, radii, ok in _rejection_rounds(params, max_attempts,
                                                        rng, batch):
        rows = np.flatnonzero(ok)[:n_samples - len(samples)]
        samples += [_extract_mc(params, counts, centers, radii, int(row))
                    for row in rows]
        if len(samples) == n_samples:
            return samples, attempts + int(rows[-1]) + 1
        attempts += len(ok)
    raise RejectionBudgetError(attempts)


def authorized_count(params, attempts, rng):
    """Number of authorized draws among ``attempts`` independent multi-type
    Poisson samples (vectorised; used for partition-function estimates)."""
    return sum(int(ok.sum()) for *_, ok in
               _rejection_rounds(params, attempts, rng, _BATCH))


class _Buffer:
    """Growable ball store with swap-remove deletion, holding an int
    ``labels`` entry per ball and, with ``cluster``, the cluster chain's
    ``adj`` too (else None): every array doubles together and moves its
    last entry together."""

    __slots__ = ("centers", "radii", "labels", "adj", "n")

    def __init__(self, d, cluster=False, cap=8):
        self.centers = np.empty((cap, d))
        self.radii = np.empty(cap)
        self.labels = np.empty(cap, dtype=np.int64)
        self.adj = np.zeros((cap, cap), dtype=bool) if cluster else None
        self.n = 0

    def append(self, x, r):
        n = self.n
        if n == len(self.radii):
            self.centers = np.concatenate([self.centers, np.empty_like(self.centers)])
            self.radii = np.concatenate([self.radii, np.empty_like(self.radii)])
            self.labels = np.concatenate([self.labels, np.empty_like(self.labels)])
            if self.adj is not None:
                self.adj = np.pad(self.adj, (0, n))
        self.centers[n] = x
        self.radii[n] = r
        self.n = n + 1

    def remove(self, j):
        m = self.n = self.n - 1
        if j != m:
            self.centers[j] = self.centers[m]
            self.radii[j] = self.radii[m]
            self.labels[j] = self.labels[m]
            if self.adj is not None:
                self.adj[j, :m] = self.adj[m, :m]
                self.adj[:m, j] = self.adj[:m, m]
                self.adj[j, j] = True

    def view(self):
        return self.centers[:self.n], self.radii[:self.n]

    def snapshot(self):
        return Configuration._frozen(self.centers[:self.n].copy(),
                                     self.radii[:self.n].copy())


class _BirthDeathChain:
    """The birth-death kernel of the module docstring, one ball store per
    colour.  Subclasses define ``_birth_weight(i, x, r)``, called once per
    birth proposal in proposal order: None blocks the birth, a float scales
    its ratio.  :meth:`_block` sees each block's draws first;
    :meth:`_death_weight` weights deaths; :meth:`_add` and :meth:`_delete`
    keep their bookkeeping on acceptance."""

    def __init__(self, window, z, laws, rng, cluster=False):
        self.z, self.laws, self.rng, self.window = z, laws, rng, window
        self.states = [_Buffer(window.dimension, cluster) for _ in z]
        self.proposals_per_sweep = max(1, math.ceil(sum(z) * window.volume))
        self.proposals = 0
        self.accepted = 0

    @property
    def acceptance_rate(self):
        return self.accepted / self.proposals if self.proposals else 0.0

    def _death_weight(self, i, j):
        return 1.0

    def _add(self, i, x, r):
        self.states[i].append(x, r)

    def _delete(self, i, j):
        self.states[i].remove(j)

    def _block(self, colours, coins, centers, radii):
        """Called with a block's draws (arrays) before its first proposal."""

    def sweep(self):
        """One sweep, its draws made block by block in the module
        docstring's order; proposal t of a block reads entry t of each."""
        rng, q = self.rng, len(self.z)
        rates, states = [z * self.window.volume for z in self.z], self.states
        for done in range(0, self.proposals_per_sweep, _BLOCK):
            k = min(_BLOCK, self.proposals_per_sweep - done)
            # NumPy draws nothing for rng.integers(1), so one colour skips it
            colours = (rng.integers(q, size=k) if q > 1
                       else np.zeros(k, dtype=np.int64))
            coins = rng.random(k)
            centers = self.window.sample_points(rng, k)
            draws = [law.sample(rng, k) for law in self.laws]
            # proposal t reads its own colour's draw t; one colour reads all
            radii = (draws[0] if q == 1 else
                     np.array(draws)[colours, np.arange(k)])
            picks, uniforms = rng.random(k).tolist(), rng.random(k).tolist()
            self.proposals += k
            self._block(colours, coins, centers, radii)
            for i, coin, x, r, pick, u in zip(colours.tolist(), coins.tolist(),
                                              centers, radii.tolist(), picks,
                                              uniforms):
                n = states[i].n
                if coin < 0.5:  # birth
                    weight = self._birth_weight(i, x, r)
                    if weight is not None and u < rates[i] / (n + 1) * weight:
                        self.accepted += 1
                        self._add(i, x, r)
                elif n:  # death
                    j = int(pick * n)
                    if u < n / rates[i] * self._death_weight(i, j):
                        self.accepted += 1
                        self._delete(i, j)

    def run(self, sweeps):
        for _ in range(sweeps):
            self.sweep()
        return self


class WidomRowlinsonChain(_BirthDeathChain):
    """Birth-death Metropolis chain targeting the finite-volume hard-core
    specification: the kernel with a birth blocked when it meets a ball of
    another colour, in the window or in the boundary ``self.boundary``
    (drawn from ``params`` first).

    A block checks its births by a direct scan of the other colours' balls,
    or against conflict lists.  Call the balls in the window and the
    boundary when the block starts its *present* balls, and its earlier
    birth proposals a birth's *earlier candidates*.  A birth's list holds
    every present ball and earlier candidate of another colour that meets
    it, from one :func:`~wrsim.geometry.overlap_pairs` call over the block's
    birth proposals, the latest first, and then the present balls.  A
    ball's id is its index in that call, so a birth's list is the larger
    ids paired with it, grouped by the pairs' own order.  Each id has an
    alive flag: a present ball's is set until it dies, a candidate's while
    it is accepted and not dead; a window ball keeps its id in its store's
    ``labels``.  A birth is blocked iff a listed ball is alive.  The balls
    alive at a birth are the present balls not yet dead and the earlier
    candidates accepted and not yet dead, so this is the direct scan's
    answer, with the same closed-ball test.

    The lists cost a fixed part plus their pairs, estimated as
    ``N sum_b min(1, V_d (2 r_b)^d / |L|)`` over the N present and proposed
    balls (about twice the expected pair count, and exact in form for equal
    radii); a direct scan costs, per birth, a part per other colour and a
    part per present ball.  A block takes the lists when they cost less,
    and a block too short to repay the fixed part decides on its proposal
    count alone, before any array work.
    """

    def __init__(self, params, rng):
        super().__init__(params.window, params.z, params.laws, rng)
        self.boundary = build_boundary(params, rng)
        self._outside = [(j, b.centers, b.radii)  # the nonempty boundary colours
                         for j, b in enumerate(self.boundary.configs) if len(b)]
        self._n_outside = sum(len(r) for _, _, r in self._outside)
        self._scan_colours = _SCAN_COLOUR * (len(self.states) - 1)
        self._alive = None

    # traced per class: a profiler wraps the methods in each class's own dict
    sweep, run = _BirthDeathChain.sweep, _BirthDeathChain.run

    @property
    def counts(self):
        return np.array([s.n for s in self.states], dtype=np.int64)

    @property
    def total_count(self):
        return int(sum(s.n for s in self.states))

    def _block(self, colours, coins, centers, radii):
        # choose conflict lists or direct scans, and build the lists; the
        # last block's lists go first, so that two never share memory
        if self._alive is not None:
            self._alive = self._conflicts = self._starts = None
        present = self._n_outside
        for s in self.states:
            present += s.n
        k = len(coins)
        scan = self._scan_colours + _SCAN_BALL * present  # per birth
        if scan * k <= _LIST_FIXED:
            return
        q, d = len(self.states), self.window.dimension
        stores = ([(j, *s.view()) for j, s in enumerate(self.states)]
                  + self._outside)  # (colour, centres, radii)
        births = np.flatnonzero(coins < 0.5)[::-1]  # the latest first
        r_all = np.concatenate([radii[births]] + [r for _, _, r in stores])
        n_all = len(r_all)
        unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)  # V_d
        pairs = n_all * float(np.minimum(
            1.0, unit * (2.0 * r_all) ** d / self.window.volume).sum())
        if pairs + _LIST_FIXED >= scan * len(births):
            return
        colour = np.concatenate(
            [colours[births]] + [np.full(len(r), j) for j, _, r in stores]
        ).astype(np.min_scalar_type(q))
        a, b = overlap_pairs(Configuration(np.concatenate(
            [centers.take(births, axis=0)] + [c for _, c, _ in stores]),
            r_all)).T
        # a ball's id is its index here; a birth meets its present balls and
        # earlier candidates at larger ids, so lists come grouped by birth
        keep = (a < len(births)) & (colour[a] != colour[b])
        self._conflicts = memoryview(b[keep].astype(np.int32))
        self._starts = memoryview(np.searchsorted(
            a[keep], np.arange(len(births) + 1)))
        self._alive = [False] * len(births) + [True] * present
        self._birth = len(births) - 1  # the id of the block's next birth
        first = len(births)
        for s in self.states:
            s.labels[:s.n] = np.arange(first, first + s.n)
            first += s.n

    def _birth_weight(self, i, x, r):
        alive = self._alive
        if alive is not None:
            b = self._birth
            self._birth = b - 1
            for j in self._conflicts[self._starts[b]:self._starts[b + 1]]:
                if alive[j]:
                    return None
            return 1.0
        for j, s in enumerate(self.states):
            n = s.n
            if j != i and n and meets(s.centers[:n], s.radii[:n], x, r).any():
                return None
        for j, c, rad in self._outside:
            if j != i and meets(c, rad, x, r).any():
                return None
        return 1.0

    def _add(self, i, x, r):
        s = self.states[i]
        s.append(x, r)
        if self._alive is not None:
            s.labels[s.n - 1] = self._birth + 1  # the birth just checked
            self._alive[self._birth + 1] = True

    def _delete(self, i, j):
        if self._alive is not None:
            self._alive[self.states[i].labels[j]] = False
        self.states[i].remove(j)

    def state(self):
        return MultiTypeConfiguration([s.snapshot() for s in self.states])


class RandomClusterChain(_BirthDeathChain):
    """Birth-death chain for the q^{N_cc}-weighted Poisson process: the
    kernel with one colour.

    Acceptance ratios carry the exact q^(delta N_cc) factor: a birth touching
    m distinct components changes N_cc by 1 - m; a death splits its component
    into ``pieces`` parts and changes N_cc by pieces - 1.  A death that
    splits nothing is mostly settled from the removed ball's neighbours
    alone; the rest run a split search seeded at those neighbours that
    stops once one search has joined them all (see
    :meth:`_death_pieces`).  Component labels are maintained incrementally;
    an accepted split relabels only the closed-off pieces.

    ``adj`` is the closed-ball overlap matrix of the balls (diagonal True):
    a birth writes the closed-ball row it computed anyway as the new row
    and column, so deaths compute no distance.  ``labels`` and ``adj`` live
    in the ball store, which grows and swap-removes them with the balls;
    ``adj`` takes capacity^2 bytes: 64 KiB at a capacity of 256 balls,
    16 MiB at 4096.  All of this is skipped when q == 1, where the weight
    is flat and the target is plain Poisson; ``adj`` is then None.
    """

    def __init__(self, window, z, law, q, rng):
        if not 1 <= q < math.inf:
            raise ValueError("q must be finite and >= 1 (real values allowed)")
        if not 0 <= z < math.inf:
            raise ValueError("activity must be finite and nonnegative")
        self.q = float(q)
        self.track = self.q != 1.0
        super().__init__(window, (float(z),), (law,), rng, cluster=self.track)
        self.n_components = 0
        self._next_label = 0

    # traced per class: a profiler wraps the methods in each class's own dict
    sweep, run = _BirthDeathChain.sweep, _BirthDeathChain.run

    @property
    def n(self):
        return self.states[0].n

    labels = property(lambda self: self.states[0].labels)
    adj = property(lambda self: self.states[0].adj)

    def _birth_weight(self, i, x, r):
        if not self.track:
            return 1.0
        buf = self.states[0]
        n = buf.n
        near = meets(buf.centers[:n], buf.radii[:n], x, r)
        touched = sorted(set(buf.labels[:n][near].tolist()))
        self._near, self._touched = near, touched  # for _add on acceptance
        return self.q ** (1 - len(touched))

    def _add(self, i, x, r):
        buf = self.states[0]
        buf.append(x, r)
        if not self.track:
            return
        n = buf.n
        if len(self._touched) == 0:
            label = self._next_label
            self._next_label += 1
            self.n_components += 1
        else:
            label = self._touched[0]
            lab = buf.labels[:n - 1]
            for t in self._touched[1:]:
                lab[lab == t] = label
            self.n_components -= len(self._touched) - 1
        buf.labels[n - 1] = label
        buf.adj[n - 1, :n - 1] = buf.adj[:n - 1, n - 1] = self._near
        buf.adj[n - 1, n - 1] = True

    def _death_weight(self, i, j):
        if not self.track:
            return 1.0
        self._pieces, self._closed = self._death_pieces(j)  # for _delete
        return self.q ** (self._pieces - 1)

    def _delete(self, i, j):
        if self.track:
            self.n_components += self._pieces - 1
            for g in self._closed:
                self.labels[g] = self._next_label
                self._next_label += 1
        self.states[0].remove(j)

    def _death_pieces(self, j):
        """(piece count, closed-off pieces) of ball j's component once j is
        deleted; exact, and read from ``adj`` alone.

        Every piece holds a neighbour of j, so the rest is one piece when j
        has at most one neighbour, when the neighbours all meet the largest
        one, or, failing that, when they join up in their own block of
        ``adj``.  Otherwise a BFS over ``adj`` seeded at the largest
        unreached neighbour (it reaches the most balls in one step) either
        reaches all remaining neighbours, and then the rest of the component
        is one piece and the search stops, or runs dry and closes off one
        piece; the next unreached neighbour seeds the next BFS.  The BFS
        never leaves j's component, so it needs no label scan.  ``closed``
        lists the ball indices of the closed-off pieces; the last piece is
        not listed and keeps the component's label.
        """
        buf = self.states[0]
        n, adj = buf.n, buf.adj
        degree = np.count_nonzero(adj[j, :n]) - 1  # the diagonal is True
        if degree <= 1:
            return degree, []
        unreached = adj[j, :n].copy()
        unreached[j] = False
        nb = unreached.nonzero()[0]
        rad = buf.radii[:n]
        top = nb[rad[nb].argmax()]
        reach = adj[top, nb]
        if reach.all():
            return 1, []
        meet = adj[np.ix_(nb, nb)]
        size = 0
        while size < np.count_nonzero(reach) < len(nb):  # grow until stuck or full
            size = np.count_nonzero(reach)
            reach = meet[reach].any(axis=0)
        if reach.all():
            return 1, []
        unvisited = np.ones(n, dtype=bool)
        unvisited[j] = False
        closed = []
        while True:
            before = unvisited.copy()
            frontier = [np.where(unreached, rad, -np.inf).argmax()]
            while len(frontier):
                unvisited[frontier] = False
                unreached[frontier] = False
                if not unreached.any():
                    return len(closed) + 1, closed
                hit = adj[frontier, :n].any(axis=0)
                frontier = (hit & unvisited).nonzero()[0]
            closed.append(np.flatnonzero(before & ~unvisited))

    def state(self):
        return self.states[0].snapshot()

    def state_n_cc(self):
        if self.track:
            return self.n_components
        return connected_components(self.state()).n_cc


def fk_coloring(config, q, rng):
    """Colour every component uniformly over {1..q}, i.i.d. across
    components; the output is always authorized and its colour-blind
    projection returns the input ball set."""
    if not 1 <= q < math.inf or int(q) != q:
        raise ValueError("q must be a positive integer")
    q = int(q)
    labeling = connected_components(config)
    labels = labeling.labels
    # a root's rank among the roots indexes the component's colour draw
    rank = (labels == np.arange(len(labels))).cumsum() - 1
    ball_colors = rng.integers(1, q + 1, size=labeling.n_cc)[rank[labels]]
    configs = []
    for color in range(1, q + 1):
        mask = ball_colors == color
        configs.append(Configuration._frozen(config.centers[mask],
                                             config.radii[mask]))
    return MultiTypeConfiguration(configs)


def effective_sample_size(series):
    """Autocorrelation-based ESS (Geyer initial positive sequence)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return float(n)
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / n
    rho = acov / acov[0]
    # sum lag pairs while they stay positive
    s = 0.0
    k = 1
    while k + 1 < n:
        gamma = rho[k] + rho[k + 1]
        if gamma <= 0:
            break
        s += gamma
        k += 2
    ess = n / (1.0 + 2.0 * s)
    return float(min(max(ess, 1.0), n))


# one ball per line, >= 12 significant digits (17 round-trips doubles exactly)
FLOAT_FORMAT = "%.16e"


@contextlib.contextmanager
def _opened(target, mode):
    """``target`` itself when it is a stream, else the file it names, opened
    in ``mode`` and closed on exit."""
    if isinstance(target, (str, bytes)):
        with open(target, mode) as fh:
            yield fh
    else:
        yield target


def dump_multitype_configuration(mc, dest):
    """Text dump, one ball per line: 1-based colour index then the geometry
    columns."""
    config, colors = mc.merged()
    with _opened(dest, "w") as fh:
        np.savetxt(fh, np.column_stack([colors, config.centers, config.radii]),
                   fmt=["%d"] + [FLOAT_FORMAT] * (mc.dimension + 1))


def load_multitype_configuration(src, q, d):
    """Read a :func:`dump_multitype_configuration` text dump of ``q`` colours
    in dimension ``d``; a line that is not a colour in 1..q followed by d + 1
    numbers raises ValueError naming it."""
    per_color = [([], []) for _ in range(q)]
    with _opened(src, "r") as fh:
        for number, line in enumerate(fh, start=1):
            row = line.split()
            if not row:
                continue
            try:
                color = int(row[0])
                ball = [float(v) for v in row[1:]]
            except ValueError:
                color = 0
            if not 1 <= color <= q or len(row) != d + 2:
                raise ValueError(f"line {number}: {line.strip()!r} is not a "
                                 f"colour in 1..{q} and {d + 1} numbers")
            centers, radii = per_color[color - 1]
            centers.append(ball[:-1])
            radii.append(ball[-1])
    return MultiTypeConfiguration(
        Configuration(np.reshape(np.array(centers, dtype=float), (-1, d)), radii)
        for centers, radii in per_color)


def write_run_metadata(dest, record):
    """Key-value text record (one ``key=value`` per line) accompanying a
    sample dump."""
    with _opened(dest, "w") as fh:
        for key in record:
            fh.write(f"{key}={record[key]}\n")
