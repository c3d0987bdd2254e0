"""Renewal statistics of rightward boxes in long thin slabs.

A ball (x, r) centred in the slab [0, n] x [0, k]^(d-1) contains the
full-cross-section box [x_1, x_1 + rt] x [0, k]^(d-1) with the transformed
length rt = sqrt(max(r^2 - (d-1) k^2, 0)); the box covers nothing left of
x_1.  Because every box spans the whole cross-section, the components of
their union are exactly the components of the axis intervals
[x_1, x_1 + rt], so all rightward analysis happens on the 1D shadow.

On the infinite slab the number of rightward components is geometric: each
component encountered walking right is the final (right-covering) one with
a fixed probability p, independently of the past, so

    P(N = a) = p (1 - p)^(a - 1),   E N = 1/p,
    E s^N = s p / (1 - s (1 - p))   finite iff p > 1 - 1/s.

One sorted interval pass (``merged_intervals``) backs the component count
``n_cc_right``, ``coverage_gap`` and the ``slab-renewal`` CLI's right-edge
flags, which read the last interval's end.  ``p_from_ncc`` measures p two
ways (frequency of N = 1, inverse mean of N) that must agree when the
renewal picture holds; ``estimate_p`` and the ``slab-renewal`` summary both
use it.  A finite slab stands in for the infinite one: a component is
classified infinite-for-the-experiment iff the largest shadow end reaches
the right edge n, with the sensitivity of that call reported at n and n/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Window
from .distributions import _check_dimension, _shadow, q_tilde_transform
from .sampling import RandomClusterChain, sample_poisson
from .analysis import EstimationError

__all__ = [
    "SlabParams",
    "PEstimate",
    "MomentCheckReport",
    "transformed_radius",
    "merged_intervals",
    "n_cc_right",
    "coverage_gap",
    "right_covered",
    "reaches_right_edge",
    "slab_ncc_samples",
    "p_from_ncc",
    "estimate_p",
    "geometric_moment",
    "tilted_moment_diagnostic",
    "segment_model_1d",
    "crcm_ncc_moment_check",
]


@dataclass(frozen=True)
class SlabParams:
    """Slab geometry and model parameters.

    n: slab length along the distinguished axis; k: cross-section side;
    d: ambient dimension; z: activity; law: radius distribution; q: colour
    weight of the cluster measure; q_bar > q: the tilt base used in the
    moment experiments (which need the transformed law's atom at zero below
    1/q_bar).
    """

    n: float
    k: float
    d: int
    z: float
    law: object
    q: float = 2.0
    q_bar: float = 2.5

    def __post_init__(self):
        if not (0 < self.n < math.inf and 0 < self.k < math.inf):
            raise ValueError("slab requires finite n > 0 and k > 0")
        _check_dimension(self.d)
        if not 0 <= self.z < math.inf:
            raise ValueError("activity must be finite and nonnegative")
        if self.q < 1:
            raise ValueError("q must be >= 1")
        if not self.q_bar > self.q:
            raise ValueError("q_bar must exceed q")
        # built once, here, so that a slab whose volume overflows is refused
        upper = np.full(self.d, float(self.k))
        upper[0] = self.n
        object.__setattr__(self, "window", Window(np.zeros(self.d), upper))

    @property
    def projected_rate(self):
        """Rate of the 1D process of segment left endpoints obtained by
        projecting the slab Poisson process onto the axis: z * k^(d-1)."""
        return self.z * self.k ** (self.d - 1)

    def law_tilde(self):
        return q_tilde_transform(self.law, self.k, self.d)


def transformed_radius(r, k, d):
    """Shadow length sqrt(r^2 - (d-1) k^2) when r^2 >= (d-1) k^2, else 0;
    in dimension 1 this is r itself."""
    _check_dimension(d)
    if not k >= 0:
        raise ValueError("k must be nonnegative")
    out = _shadow(np.asarray(r, dtype=float), (d - 1) * k * k)
    return float(out) if out.ndim == 0 else out


def merged_intervals(config, params):
    """Disjoint closed intervals [lo, hi], sorted, forming the union of the
    axis shadows [x_1, x_1 + rt]; touching shadows merge, and the last hi is
    the largest shadow end.  The one sort and sweep behind n_cc_right,
    coverage_gap and the CLI's right-edge flags."""
    if len(config) == 0:
        return np.empty((0, 2))
    starts = config.centers[:, 0]
    order = starts.argsort(kind="stable")
    starts = starts[order]
    lengths = transformed_radius(config.radii, params.k, params.d)
    reach = np.maximum.accumulate(starts + lengths[order])
    # strict: a shadow starting exactly at the reach so far joins it
    opens = (starts[1:] > reach[:-1]).nonzero()[0] + 1
    out = np.empty((len(opens) + 1, 2))
    out[0, 0], out[-1, 1] = starts[0], reach[-1]
    out[1:, 0] = starts[opens]
    out[:-1, 1] = reach[opens - 1]
    return out


def n_cc_right(config, params):
    """Number of components of the union of rightward shadows; 0 if empty."""
    return len(merged_intervals(config, params))


def coverage_gap(config, y, params):
    """Left endpoint of the first uncovered gap of [y, n], or None when
    [y, n] is fully inside the shadow union.  The cover reaches the end of
    the last interval starting at or before y, or stays at y."""
    if not 0.0 <= y <= params.n:
        raise ValueError("y must lie in [0, n]")
    intervals = merged_intervals(config, params)
    i = int(np.searchsorted(intervals[:, 0], y, side="right")) - 1
    cover = max(y, float(intervals[i, 1])) if i >= 0 else y
    return None if cover >= params.n else cover


def right_covered(config, y, params):
    """True iff [y, n] (times the full cross-section) lies in the union of
    rightward boxes."""
    return coverage_gap(config, y, params) is None


def reaches_right_edge(config, params, edge=None):
    """True iff the largest shadow end reaches the given edge (default n);
    the finite-slab stand-in for an infinite component.  Equals comparing
    the end of ``merged_intervals``' last interval with the edge."""
    edge = params.n if edge is None else edge
    if len(config) == 0:
        return False
    ends = config.centers[:, 0] + transformed_radius(config.radii, params.k,
                                                     params.d)
    return bool(ends.max() >= edge)


@dataclass(frozen=True)
class PEstimate:
    """Renewal probability estimate: frequency of a single rightward
    component among nonempty samples, plus the inverse-mean cross-check."""

    p_hat: float
    stderr: float
    inverse_mean: float
    inverse_mean_stderr: float
    mean_ncc: float
    n_nonempty: int
    replicas: int


def sample_slab(params, rng):
    """One Poisson draw on the slab window."""
    return sample_poisson(params.window, params.z, params.law, rng)


def slab_ncc_samples(params, replicas, rng):
    """Per-replica rightward component counts of independent slab draws."""
    out = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        out[i] = n_cc_right(sample_slab(params, rng), params)
    return out


def p_from_ncc(ncc):
    """Renewal estimate from per-replica rightward component counts: the
    frequency of N = 1 among nonempty samples with its binomial standard
    error, plus 1/mean(N) as the geometric-law cross-estimator."""
    ncc = np.asarray(ncc)
    nonempty = ncc[ncc > 0]
    if len(nonempty) == 0:
        raise EstimationError("every slab sample was empty; raise z or n")
    m = len(nonempty)
    p_hat = float((nonempty == 1).mean())
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / m)
    mean_ncc = float(nonempty.mean())
    se_mean = float(nonempty.std(ddof=1)) / math.sqrt(m) if m > 1 else 0.0
    return PEstimate(p_hat=p_hat, stderr=stderr, inverse_mean=1.0 / mean_ncc,
                     inverse_mean_stderr=se_mean / mean_ncc ** 2,
                     mean_ncc=mean_ncc, n_nonempty=m, replicas=len(ncc))


def estimate_p(params, replicas, rng):
    """:func:`p_from_ncc` on ``replicas`` (at least 100) independent slab
    draws."""
    if replicas < 100:
        raise ValueError("need at least 100 replicas")
    return p_from_ncc(slab_ncc_samples(params, replicas, rng))


def geometric_moment(s_bar, p):
    """E[s^N] for N geometric on {1, 2, ...} with success probability p:
    s p / (1 - s (1 - p)) when p > 1 - 1/s, +inf otherwise."""
    if not s_bar >= 1.0:
        raise ValueError("s_bar must be >= 1")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if p == 1.0:
        return s_bar
    if p <= 1.0 - 1.0 / s_bar:
        return math.inf
    return s_bar * p / (1.0 - s_bar * (1.0 - p))


def tilted_moment_diagnostic(ncc_samples, s_bar):
    """Running-mean diagnostic of E[s^N]: (final mean, diverging flag).

    The flag fires when the running mean at the full sample is still far
    above the running mean at the half sample, the signature of an infinite
    tilted moment."""
    ncc = np.asarray(ncc_samples, dtype=float)
    if len(ncc) < 4:
        raise ValueError("need at least 4 samples")
    weights = float(s_bar) ** ncc
    running = np.cumsum(weights) / np.arange(1, len(ncc) + 1)
    half = running[len(ncc) // 2 - 1]
    full = running[-1]
    diverging = full > 1.5 * half
    return float(full), bool(diverging)


def segment_model_1d(z_eff, law_tilde, horizon, rng):
    """Reduced 1D model: left endpoints from a Poisson process of rate
    ``z_eff`` on [0, horizon), lengths i.i.d. from ``law_tilde``.

    Returned as a 1D configuration (centre = left endpoint, radius = length)
    so it feeds n_cc_right / right_covered with d = 1 directly.
    """
    if z_eff <= 0:
        raise ValueError("effective rate must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return sample_poisson(Window([0.0], [horizon]), z_eff, law_tilde, rng)


@dataclass(frozen=True)
class MomentCheckReport:
    """Mean component count per slab length with the growth-trend verdict.

    ``passed`` is True when the weighted-least-squares slope of mean N_cc
    against n is not significantly positive (lower 3-sigma bound <= 0)."""

    n_values: tuple
    means: tuple
    stderrs: tuple
    slope: float
    slope_stderr: float
    passed: bool


def crcm_ncc_moment_check(params, n_values, sweeps, replicas, rng):
    """Does the mean component count of the cluster measure stay bounded as
    the slab grows at fixed cross-section?

    Runs independent birth-death cluster chains on slabs of each length,
    takes the final-state component count per replica, and tests the trend.
    A plain Poisson reference (q = 1) at moderate activity grows linearly in
    n and must fail this check.
    """
    n_values = tuple(float(n) for n in n_values)
    if len(n_values) < 3:
        raise ValueError("need at least 3 slab lengths")
    if replicas < 2 or sweeps < 1:
        raise EstimationError("degenerate experiment: need replicas >= 2 and sweeps >= 1")
    means, ses = [], []
    for n in n_values:
        slab = SlabParams(n=n, k=params.k, d=params.d, z=params.z,
                          law=params.law, q=params.q, q_bar=params.q_bar)
        vals = np.empty(replicas)
        for rep in range(replicas):
            chain = RandomClusterChain(slab.window, slab.z, slab.law, slab.q, rng)
            chain.run(sweeps)
            vals[rep] = chain.state_n_cc()
        means.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1)) / math.sqrt(replicas))
    x = np.asarray(n_values)
    y = np.asarray(means)
    se = np.asarray(ses)
    w = 1.0 / np.maximum(se, 1e-12) ** 2
    xbar = float((w * x).sum() / w.sum())
    sxx = float((w * (x - xbar) ** 2).sum())
    slope = float((w * (x - xbar) * y).sum() / sxx)
    slope_se = math.sqrt(1.0 / sxx)
    passed = slope - 3.0 * slope_se <= 0.0
    return MomentCheckReport(n_values=n_values, means=tuple(means),
                             stderrs=tuple(ses), slope=slope,
                             slope_stderr=slope_se, passed=passed)
