"""Radius distributions Q on R+ with sampling, tails and analytic structure.

Shipped families: Dirac, Uniform, Exponential, Pareto tail, and a mixture
placing an atom at zero in front of any of them.  Beyond sampling, each law
knows

* its CDF ``Q([0, r])`` and survival function ``Q(]r, oo[)``,
* its d-th moment ``int r^d Q(dr)`` (``inf`` when divergent), which decides
  the integrability classification,
* the growth class of ``int_1^u Q(]r, oo[) dr``, which decides whether the
  half-line coverage integral ``int_1^oo exp(-int_1^u Q(]r,oo[) dr) du``
  converges.

The ``q_tilde_transform`` maps Q to the law of the shadow length
``sqrt(r^2 - s)+`` with ``s = (d-1) k^2``, i.e. the distribution with CDF
``r -> Q([0, sqrt(r^2 + s)])`` used by the slab renewal analysis.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

__all__ = [
    "RadiusLaw",
    "DiracRadius",
    "UniformRadius",
    "ExponentialRadius",
    "ParetoRadius",
    "AtomMixtureRadius",
    "TransformedRadius",
    "IntegrabilityReport",
    "CoverageReport",
    "classify_integrability",
    "check_coverage_condition",
    "q_tilde_transform",
    "condition_summary",
    "law_from_spec",
]

# growth classes of the inner integral I(u) = int_1^u survival(r) dr
_TAIL_FINITE = "finite"          # I(u) bounded  -> coverage integral diverges
_TAIL_LOG = "logarithmic"        # I(u) ~ L log u -> converges iff L > 1
_TAIL_SUPERLOG = "superlogarithmic"  # I(u)/log u -> oo -> always converges


class RadiusLaw:
    """Base class; subclasses implement sampling and analytic tails, and
    name their record fields besides ``kind`` (``law_fields`` hold nested
    laws), from which the record, equality, hashing and repr derive."""

    kind = "abstract"
    fields = ()
    law_fields = ()

    def sample(self, rng, size):
        """A fresh, writable, nonnegative float64 array of shape ``size`` (an
        int or a tuple) of draws; one draw is ``law.sample(rng, 1)[0]``."""
        raise NotImplementedError

    def cdf(self, r):
        """Q([0, r]) evaluated right-continuously; 0 for r < 0."""
        raise NotImplementedError

    def survival(self, r):
        """Q(]r, oo[) = 1 - cdf(r)."""
        return 1.0 - self.cdf(r)

    def atom_at_zero(self):
        """Q({0})."""
        return 0.0

    def moment(self, d):
        """int r^d Q(dr); math.inf when the integral diverges."""
        raise NotImplementedError

    def tail_growth(self):
        """Growth class of int_1^u survival(r) dr; see module docstring."""
        raise NotImplementedError

    def _values(self):
        return tuple(getattr(self, name) for name in self.fields)

    def to_spec(self):
        """The JSON record; a nested law becomes its own record."""
        spec = {"kind": self.kind, **dict(zip(self.fields, self._values()))}
        return {**spec, **{k: spec[k].to_spec() for k in self.law_fields}}

    def __eq__(self, other):
        return type(self) is type(other) and self._values() == other._values()

    def __hash__(self):
        return hash((self.kind, self._values()))

    def __repr__(self):
        fields = ", ".join(f"{k}={v}" for k, v in self.to_spec().items() if k != "kind")
        return f"{type(self).__name__}({fields})"


class DiracRadius(RadiusLaw):
    """All mass at a single radius r0 >= 0."""

    kind = "dirac"
    fields = ("radius",)

    def __init__(self, radius):
        radius = float(radius)
        if not radius >= 0:
            raise ValueError("dirac radius must be nonnegative")
        self.radius = radius

    def sample(self, rng, size):
        out = np.empty(size)
        out.fill(self.radius)
        return out

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r >= self.radius, 1.0, 0.0)

    def atom_at_zero(self):
        return 1.0 if self.radius == 0.0 else 0.0

    def moment(self, d):
        return self.radius ** d

    def tail_growth(self):
        return (_TAIL_FINITE, None)


class UniformRadius(RadiusLaw):
    """Uniform on [low, high], 0 <= low < high."""

    kind = "uniform"
    fields = ("low", "high")

    def __init__(self, low, high):
        low, high = float(low), float(high)
        if not (0.0 <= low < high):
            raise ValueError("uniform law requires 0 <= low < high")
        self.low = low
        self.high = high

    def sample(self, rng, size):
        return self.low + (self.high - self.low) * rng.random(size)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.clip((r - self.low) / (self.high - self.low), 0.0, 1.0)

    def moment(self, d):
        lo, hi = self.low, self.high
        return (hi ** (d + 1) - lo ** (d + 1)) / ((d + 1) * (hi - lo))

    def tail_growth(self):
        return (_TAIL_FINITE, None)


class ExponentialRadius(RadiusLaw):
    """Exponential with the given rate; survival exp(-rate * r)."""

    kind = "exponential"
    fields = ("rate",)

    def __init__(self, rate):
        rate = float(rate)
        if not rate > 0:
            raise ValueError("exponential rate must be positive")
        self.rate = rate

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0, 0.0, 1.0 - np.exp(-self.rate * np.maximum(r, 0.0)))

    def survival(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0, 1.0, np.exp(-self.rate * np.maximum(r, 0.0)))

    def moment(self, d):
        return math.gamma(d + 1) / self.rate ** d

    def tail_growth(self):
        return (_TAIL_FINITE, None)


class ParetoRadius(RadiusLaw):
    """Pareto tail: survival (r / xmin)^(-alpha) for r >= xmin."""

    kind = "pareto"
    fields = ("alpha", "xmin")

    def __init__(self, alpha, xmin):
        alpha, xmin = float(alpha), float(xmin)
        if not (alpha > 0 and xmin > 0):
            raise ValueError("pareto law requires alpha > 0 and xmin > 0")
        self.alpha = alpha
        self.xmin = xmin

    def sample(self, rng, size):
        # inverse CDF: S(r) = (r/xmin)^-alpha  =>  r = xmin * U^(-1/alpha)
        u = rng.random(size)
        return self.xmin * (1.0 - u) ** (-1.0 / self.alpha)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = (r / self.xmin) ** (-self.alpha)
        return np.where(r < self.xmin, 0.0, 1.0 - tail)

    def survival(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = (r / self.xmin) ** (-self.alpha)
        return np.where(r < self.xmin, 1.0, tail)

    def moment(self, d):
        if self.alpha <= d:
            return math.inf
        return self.alpha * self.xmin ** d / (self.alpha - d)

    def tail_growth(self):
        if self.alpha > 1.0:
            return (_TAIL_FINITE, None)
        if self.alpha == 1.0:
            # survival xmin / r beyond xmin: I(u) = xmin log u + O(1)
            return (_TAIL_LOG, self.xmin)
        return (_TAIL_SUPERLOG, None)


class AtomMixtureRadius(RadiusLaw):
    """Mixture p0 * delta_0 + (1 - p0) * remainder, p0 in [0, 1)."""

    kind = "atom_mixture"
    fields = ("p0", "remainder")
    law_fields = ("remainder",)

    def __init__(self, p0, remainder):
        p0 = float(p0)
        if not (0.0 <= p0 < 1.0):
            raise ValueError("atom weight p0 must lie in [0, 1)")
        if not isinstance(remainder, RadiusLaw):
            raise ValueError("remainder must be a RadiusLaw")
        self.p0 = p0
        self.remainder = remainder

    def sample(self, rng, size):
        zero = rng.random(size) < self.p0
        return np.where(zero, 0.0, self.remainder.sample(rng, size))

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        base = self.p0 + (1.0 - self.p0) * self.remainder.cdf(r)
        return np.where(r < 0, 0.0, base)

    def survival(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < 0, 1.0, (1.0 - self.p0) * self.remainder.survival(r))

    def atom_at_zero(self):
        return self.p0 + (1.0 - self.p0) * self.remainder.atom_at_zero()

    def moment(self, d):
        rem = self.remainder.moment(d)
        return math.inf if rem == math.inf else (1.0 - self.p0) * rem

    def tail_growth(self):
        cls, coef = self.remainder.tail_growth()
        if cls == _TAIL_LOG:
            return (_TAIL_LOG, (1.0 - self.p0) * coef)
        return (cls, coef)


def _shadow(r, shift):
    """Shadow lengths sqrt(max(r^2 - shift, 0)), with shift = (d - 1) k^2."""
    return np.sqrt(np.maximum(r * r - shift, 0.0))


class TransformedRadius(RadiusLaw):
    """Law of sqrt(max(r^2 - shift, 0)) for r drawn from a source law.

    Its CDF at t is the source CDF at sqrt(t^2 + shift); the atom at zero is
    the source mass of [0, sqrt(shift)].  Build via :func:`q_tilde_transform`.
    """

    kind = "transformed"
    fields = ("shift", "source")
    law_fields = ("source",)

    def __init__(self, source, shift):
        shift = float(shift)
        if not shift >= 0:
            raise ValueError("shift must be nonnegative")
        self.source = source
        self.shift = shift

    def sample(self, rng, size):
        return _shadow(self.source.sample(rng, size), self.shift)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        inner = np.sqrt(np.maximum(t, 0.0) ** 2 + self.shift)
        return np.where(t < 0, 0.0, self.source.cdf(inner))

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        inner = np.sqrt(np.maximum(t, 0.0) ** 2 + self.shift)
        return np.where(t < 0, 1.0, self.source.survival(inner))

    def atom_at_zero(self):
        return float(self.source.cdf(math.sqrt(self.shift)))

    def moment(self, d):
        # the tail of sqrt(r^2 - s) matches the tail of r, so divergence is
        # inherited; otherwise integrate d t^(d-1) survival(t) dt
        if self.source.moment(d) == math.inf:
            return math.inf
        val, _ = integrate.quad(
            lambda t: d * t ** (d - 1) * float(self.survival(t)),
            0.0, math.inf, limit=200)
        return val

    def tail_growth(self):
        return self.source.tail_growth()


@dataclass(frozen=True)
class IntegrabilityReport:
    """Outcome of the d-th moment test ``int r^d Q(dr) < oo``."""

    d: int
    integrable: bool
    moment: float


@dataclass(frozen=True)
class CoverageReport:
    """Convergence verdict for int_1^oo exp(-int_1^u Q(]r,oo[) dr) du.

    ``converges`` is the verdict (False when inconclusive), ``estimate`` the
    value of the outer integral up to the cutoff u = 10^6 (inf marks
    detected divergence on the analytic path).  Truthiness equals
    ``converges``.
    """

    converges: bool
    method: str
    estimate: float
    inconclusive: bool = False

    def __bool__(self):
        return self.converges


def _check_dimension(d):
    """Refuse a d that is not a positive integer: NaN and 2.5 pass d < 1."""
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")


def classify_integrability(law, d):
    """Analytic integrability classification of ``int r^d Q(dr)``."""
    _check_dimension(d)
    m = law.moment(d)
    return IntegrabilityReport(d=d, integrable=m != math.inf, moment=m)


_COVERAGE_CUTOFF = 1e6  # upper end u of the coverage quadrature


def _coverage_quadrature(law):
    """Numeric fallback: integrate exp(-I(u)) on doubling cutoffs and decide
    from the decay of the increments.

    An increment ratio <= 0.8 across a doubling means a geometrically
    vanishing tail (convergent); a ratio >= 1.25 means the integrand has
    stopped decaying (divergent); anything between is flagged inconclusive.
    """
    cutoff = _COVERAGE_CUTOFF
    cutoffs = [cutoff / 8, cutoff / 4, cutoff / 2, cutoff]
    grid = np.concatenate([[1.0], np.geomspace(1.0 + 1e-9, cutoff, 6000)])
    surv = np.asarray(law.survival(grid), dtype=float)
    inner = np.concatenate([[0.0], np.cumsum(
        0.5 * (surv[1:] + surv[:-1]) * np.diff(grid))])
    integrand = np.exp(-inner)
    outer = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid))])
    totals = [float(np.interp(c, grid, outer)) for c in cutoffs]
    increments = np.diff(totals)
    if np.all(increments <= 1e-12):
        return CoverageReport(True, "quadrature", totals[-1])
    ratio = increments[-1] / max(increments[-2], 1e-300)
    if ratio <= 0.8:
        tail = increments[-1] * ratio / (1.0 - ratio)
        return CoverageReport(True, "quadrature", totals[-1] + tail)
    if ratio >= 1.25:
        return CoverageReport(False, "quadrature", totals[-1])
    return CoverageReport(False, "quadrature", totals[-1], inconclusive=True)


def check_coverage_condition(law, method="auto"):
    """Does ``int_1^oo exp(-int_1^u Q(]r,oo[) dr) du`` converge?

    Analytic where the family's tail growth class settles it (``"auto"``),
    otherwise, or with ``method="quadrature"``, the doubling quadrature
    fallback; a quadrature verdict that cannot be told apart from slow
    convergence at the cutoff comes back flagged ``inconclusive`` rather
    than silently decided.
    """
    if method not in ("auto", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        cls, coef = law.tail_growth()
        if cls == _TAIL_FINITE:
            return CoverageReport(False, "analytic", math.inf)
        if cls == _TAIL_SUPERLOG or (cls == _TAIL_LOG and coef > 1.0):
            est = _coverage_quadrature(law).estimate
            return CoverageReport(True, "analytic", est)
        if cls == _TAIL_LOG:
            return CoverageReport(False, "analytic", math.inf)
    return _coverage_quadrature(law)


def q_tilde_transform(law, k, d):
    """Distribution of the shadow length sqrt(max(r^2 - (d-1) k^2, 0)).

    In dimension 1 the shadow length is the radius itself, so the law is
    returned unchanged.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    _check_dimension(d)
    if d == 1:
        return law
    return TransformedRadius(law, (d - 1) * k * k)


def condition_summary(law, d, q, q_bar=None, k=None):
    """Both the strict and the conjectured activity-regime conditions.

    Strict: coverage-integral convergence and Q({0}) < 1/q (plus the
    transformed-law atom against 1/q_bar when k, q_bar are given).
    Conjectured weaker variants: plain non-integrability and Q({0}) < 1.
    Reports both; decides neither.
    """
    report = classify_integrability(law, d)
    coverage = check_coverage_condition(law)
    atom = law.atom_at_zero()
    out = {
        "integrable": report.integrable,
        "moment": report.moment,
        "coverage_condition": coverage.converges,
        "coverage_method": coverage.method,
        "coverage_inconclusive": coverage.inconclusive,
        "coverage_conjectured": not report.integrable,
        "atom": atom,
        "atom_strict": atom < 1.0 / q,
        "atom_conjectured": atom < 1.0,
    }
    if q_bar is not None and k is not None:
        tilde = q_tilde_transform(law, k, d)
        out["tilde_atom"] = tilde.atom_at_zero()
        out["tilde_atom_strict"] = out["tilde_atom"] < 1.0 / q_bar
    return out


_LAWS = {cls.kind: cls for cls in RadiusLaw.__subclasses__()}


def law_from_spec(spec):
    """Build a law from its JSON record, e.g.
    ``{"kind": "pareto", "alpha": 1.5, "xmin": 1.0}``.  Unknown kinds and
    unknown or missing fields are hard errors."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError(f"law spec must be a dict with a 'kind': {spec!r}")
    kind = spec["kind"]
    if kind not in _LAWS:
        raise ValueError(f"unknown law kind {kind!r}")
    cls = _LAWS[kind]
    fields = set(spec) - {"kind"}
    if fields != set(cls.fields):
        raise ValueError(f"law kind {kind!r} takes fields "
                         f"{sorted(cls.fields)}, got {sorted(fields)}")
    if any(isinstance(spec[name], bool) for name in cls.fields
           if name not in cls.law_fields):
        raise ValueError(f"law kind {kind!r} takes no booleans, got {spec!r}")
    return cls(**{name: law_from_spec(spec[name]) if name in cls.law_fields
                  else spec[name] for name in cls.fields})
