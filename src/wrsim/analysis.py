"""Entropy arithmetic and statistical verification utilities.

The polychromaticity certificate rests on two volume-normalised entropy
facts for activity z split as z_i = z * alpha_i over q colours:

* every monochromatic stationary measure has specific entropy at least
  z (1 - max_i alpha_i);
* a free-boundary finite-volume sample admits, for any admissible
  (beta, gamma, epsilon) margins and any tile side m with fit probabilities
  phi_i, the n-independent upper bound

      z - (beta / m^d) log(1 - q + sum_i exp(z alpha_i m^d phi_i)).

The gap between the two is controlled by

    Psi(z) = z max_i alpha_i
             - (beta / m^d) log(1 - q + sum_i exp(z alpha_i m^d phi_i)),

which vanishes at 0; whenever Psi(z) < 0 the upper bound sits strictly below
the monochromatic floor, certifying that a polychromatic phase exists at
activity z.  ``small_z_threshold`` finds the largest such z by bisection.

phi_i is the probability that a ball with a uniform centre in the tile and a
radius from Q_i fits entirely inside the tile.

The module also ships the rejection-based upper estimate of the specific
entropy, -log(Z-hat)/|L| with Z-hat the authorized fraction of multi-type
Poisson draws, and a one-sided stochastic-domination tester for increasing
observables (hard-core samples must not beat the free Poisson process on
any increasing statistic).
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiracRadius, _check_dimension
from .geometry import Window
from .sampling import authorized_count

__all__ = [
    "EntropyBoundInputs",
    "EntropyEstimate",
    "ThresholdCertificate",
    "DominationReport",
    "CertificateError",
    "EstimationError",
    "phi_m",
    "psi_eval",
    "mono_entropy_lower_bound",
    "entropy_upper_estimate",
    "small_z_threshold",
    "domination_test",
]


_Z_TOL = 1e-10  # relative width at which the z* bisection stops
_MAX_DOUBLINGS = 200  # bracket doublings before Psi counts as never positive
_Z_TOLERANCE = 3.0  # combined standard errors a domination row may exceed by


class CertificateError(RuntimeError):
    """No polychromaticity certificate is available for these inputs."""


class EstimationError(RuntimeError):
    """A Monte Carlo estimator received no usable samples."""


@dataclass(frozen=True)
class EntropyBoundInputs:
    """Inputs of the entropy comparison.

    alpha must be a probability vector over the q = len(alpha) colours; phi
    the per-colour tile fit probabilities.  The margins must satisfy the chain
    0 < epsilon < 1 - max(alpha), 0 < gamma < 1 - epsilon - max(alpha) and
    epsilon + max(alpha) <= beta (1 - gamma) with beta < 1.
    """

    alpha: tuple
    beta: float
    gamma: float
    epsilon: float
    m_side: float
    d: int
    phi: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "phi", tuple(float(p) for p in self.phi))
        alpha = np.asarray(self.alpha)
        if len(self.phi) != len(alpha):
            raise ValueError("alpha and phi must have the same length")
        if not (np.all(alpha >= 0) and abs(alpha.sum() - 1.0) <= 1e-9):
            raise ValueError("alpha must be a probability vector")
        if any(not 0.0 <= p <= 1.0 for p in self.phi):
            raise ValueError("phi entries must lie in [0, 1]")
        _check_dimension(self.d)
        try:  # a float power raises on overflow and underflows to 0
            volume = float(self.m_side) ** int(self.d)
        except OverflowError:
            volume = math.inf
        if not (0 < self.m_side < math.inf and 0 < volume < math.inf):
            raise ValueError("invalid tile geometry: m_side and the tile "
                             "volume m_side ** d must be positive and finite")

    @property
    def q(self):
        return len(self.alpha)

    @property
    def alpha_max(self):
        return max(self.alpha)

    @property
    def tile_volume(self):
        return self.m_side ** self.d

    def margins_valid(self):
        a = self.alpha_max
        return (0.0 < self.epsilon < 1.0 - a
                and 0.0 < self.gamma < 1.0 - self.epsilon - a
                and self.epsilon + a <= self.beta * (1.0 - self.gamma)
                and self.beta < 1.0)

    def validate_margins(self):
        if not self.margins_valid():
            raise ValueError(
                "margins violate the constraint chain "
                f"(epsilon={self.epsilon}, gamma={self.gamma}, beta={self.beta}, "
                f"alpha_max={self.alpha_max})")

    @classmethod
    def with_default_margins(cls, alpha, m_side, d, phi):
        """Deterministic margins derived from alpha_max:
        epsilon = (1 - a)/2, gamma = (1 - epsilon - a)/2, and beta midway
        between (epsilon + a)/(1 - gamma) and 1."""
        a = max(alpha)
        if a >= 1.0:
            raise ValueError("max(alpha) must be < 1 to derive margins")
        epsilon = (1.0 - a) / 2.0
        gamma = (1.0 - epsilon - a) / 2.0
        beta = 0.5 * ((epsilon + a) / (1.0 - gamma) + 1.0)
        return cls(alpha=tuple(alpha), beta=beta, gamma=gamma,
                   epsilon=epsilon, m_side=m_side, d=d, phi=tuple(phi))


@dataclass(frozen=True)
class EntropyEstimate:
    estimate: float
    stderr: float
    acceptance: float
    replicas: int


@dataclass(frozen=True)
class ThresholdCertificate:
    """Certified activity range (0, z_star) plus the comparison at the
    midpoint: bound_at_z is the monochromatic floor, margin how far below it
    the polychromatic upper value sits (positive = certified)."""

    z_star: float
    z_checked: float
    psi_at_z: float
    bound_at_z: float
    margin: float


@dataclass(frozen=True)
class DominationRow:
    observable: str
    sample_mean: float
    sample_se: float
    reference_mean: float
    reference_se: float
    z_score: float
    passed: bool


@dataclass(frozen=True)
class DominationReport:
    rows: tuple
    passed: bool


def phi_m(law, m_side, d, probes=20000, rng=None, method="auto"):
    """Probability that a ball with uniform centre in the m-tile and radius
    from the law fits inside the tile.

    Returns (estimate, stderr).  Dirac radii are evaluated in closed form
    ((m - 2 r0)/m)^d clipped at 0 unless method="mc" forces Monte Carlo.
    """
    if not 0 < m_side < math.inf:
        raise ValueError("m_side must be positive and finite")
    _check_dimension(d)
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto" and isinstance(law, DiracRadius):
        frac = max(0.0, (m_side - 2.0 * law.radius) / m_side)
        return frac ** d, 0.0
    if rng is None:
        raise ValueError("Monte Carlo path needs a generator")
    x = Window.cube(m_side, d).sample_points(rng, probes)
    r = law.sample(rng, probes)
    inside = np.all((x >= r[:, None]) & (x <= m_side - r[:, None]), axis=1)
    p = float(inside.mean())
    se = math.sqrt(max(p * (1.0 - p), 0.0) / probes)
    return p, se


def _log_weighted_expsum(a, one_minus_q):
    """log(one_minus_q + sum exp(a)) computed stably, plus the shifted pieces
    needed by the derivative."""
    a = np.asarray(a, dtype=float)
    m = float(a.max())
    shifted = np.exp(a - m)
    inner = one_minus_q * math.exp(-m) + shifted.sum()
    if inner <= 0.0:
        raise ValueError("log argument is not positive")
    return m + math.log(inner), shifted, inner


def psi_eval(inputs, z):
    """Value and derivative of Psi at activity z (exact formulas).

    Psi(z)  = z max(alpha) - (beta/V) log(1 - q + sum_i exp(z alpha_i V phi_i))
    Psi'(z) = max(alpha) - beta * sum_i alpha_i phi_i exp(z alpha_i V phi_i)
                              / (1 - q + sum_i exp(z alpha_i V phi_i))

    with V the tile volume.  Well defined for every z >= 0 since each
    exponential is >= 1 there.
    """
    alpha = np.asarray(inputs.alpha)
    phi = np.asarray(inputs.phi)
    v = inputs.tile_volume
    a = z * alpha * v * phi
    log_arg, shifted, inner = _log_weighted_expsum(a, 1.0 - inputs.q)
    value = z * inputs.alpha_max - (inputs.beta / v) * log_arg
    numer = float((alpha * phi * shifted).sum())
    deriv = inputs.alpha_max - inputs.beta * numer / inner
    return value, deriv


def mono_entropy_lower_bound(z, alpha):
    """Specific-entropy floor z (1 - max_i alpha_i) shared by every
    monochromatic stationary measure."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-9:
        raise ValueError("alpha must be a probability vector")
    return float(z) * (1.0 - float(alpha.max()))


def entropy_upper_estimate(params, replicas, rng):
    """-log(Z-hat)/|L| with Z-hat the authorized fraction of ``replicas``
    independent multi-type Poisson draws; delta-method standard error.

    Only meaningful on rejection-feasible windows; zero acceptances raise
    :class:`EstimationError`.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    accepted = authorized_count(params, replicas, rng)
    if accepted == 0:
        raise EstimationError(
            f"no authorized draw in {replicas} replicas; window too large "
            "for the rejection estimator")
    p = accepted / replicas
    volume = params.window.volume
    estimate = -math.log(p) / volume
    stderr = math.sqrt((1.0 - p) / (replicas * p)) / volume
    return EntropyEstimate(estimate=estimate, stderr=stderr, acceptance=p,
                           replicas=replicas)


def small_z_threshold(inputs):
    """Largest z* such that Psi(z) < 0 on (0, z*), found by bracketing the
    first positive root of Psi and bisecting.

    For z below z* the upper entropy value z (1 - max alpha) + Psi(z) sits
    strictly below the monochromatic floor, certifying a polychromatic
    phase.  Requires Psi'(0) < 0 (fails explicitly otherwise, e.g. for
    degenerate alpha with max(alpha) = 1).
    """
    _, d0 = psi_eval(inputs, 0.0)
    if d0 >= 0.0:
        raise CertificateError(
            f"Psi'(0) = {d0:.6g} >= 0: no certified polychromatic interval")
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_DOUBLINGS):
        val, _ = psi_eval(inputs, hi)
        if val > 0.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise CertificateError("Psi stayed negative up to the doubling cap")
    while hi - lo > _Z_TOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        val, _ = psi_eval(inputs, mid)
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    z_star = lo
    z_checked = 0.5 * z_star
    psi_c, _ = psi_eval(inputs, z_checked)
    bound = mono_entropy_lower_bound(z_checked, inputs.alpha)
    return ThresholdCertificate(z_star=z_star, z_checked=z_checked,
                                psi_at_z=psi_c, bound_at_z=bound,
                                margin=-psi_c)


def domination_test(sample_values, reference_values, min_samples=100):
    """One-sided comparison of increasing observables: the hard-core stream
    must not exceed the Poisson reference by more than three combined
    standard errors on any observable.

    Both inputs map observable name -> array of per-sample values.
    """
    names = sorted(sample_values)
    if sorted(reference_values) != names:
        raise ValueError("streams must share the same observables")
    rows = []
    for name in names:
        xs = np.asarray(sample_values[name], dtype=float)
        ys = np.asarray(reference_values[name], dtype=float)
        if len(xs) < min_samples or len(ys) < min_samples:
            raise ValueError(
                f"observable {name!r} needs >= {min_samples} samples per side")
        se_x = float(xs.std(ddof=1)) / math.sqrt(len(xs))
        se_y = float(ys.std(ddof=1)) / math.sqrt(len(ys))
        se = math.hypot(se_x, se_y)
        diff = float(xs.mean() - ys.mean())
        z = diff / se if se > 0 else (math.inf if diff > 0 else 0.0)
        rows.append(DominationRow(
            observable=name, sample_mean=float(xs.mean()), sample_se=se_x,
            reference_mean=float(ys.mean()), reference_se=se_y,
            z_score=z, passed=z <= _Z_TOLERANCE))
    return DominationReport(rows=tuple(rows), passed=all(r.passed for r in rows))
