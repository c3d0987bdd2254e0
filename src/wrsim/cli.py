"""Config-driven experiment runner.

A run is described by a JSON file::

    {
      "experiment": "wr-sample",
      "seed": 42,
      "replicas": 8,
      "sweeps": 200,
      "out": "runs/demo",
      "format": "csv",
      "params": {
        "q": 2, "z": 0.5,
        "law": {"kind": "dirac", "radius": 0.5},
        "window": [[0, 0], [3, 3]],
        "boundary": {"kind": "free"}
      },
      "sweep": [{"name": "z", "values": [0.25, 0.5, 1.0]}]
    }

Each experiment kind's row columns are its ``columns`` in ``_KINDS`` below,
tabulated in the README; every row starts with the swept parameter columns,
then ``replica`` and ``seed``, and ends with ``error``.

Law records use the field names of :func:`wrsim.distributions.law_from_spec`,
e.g. ``{"kind": "pareto", "alpha": 1.5, "xmin": 1.0}``.  Unknown keys
anywhere, and values that do not build at any sweep point, are hard errors
raised before any sampling.

Replica seeds derive from the master seed through a splitmix64-style mix
with the documented constants below, so a (config, seed) pair fixes every
output byte except the tool-version metadata field.  Exit codes: 0 success,
2 validation error, 3 sampler failure in any row, 4 I/O error.
"""

import argparse
import csv
import dataclasses
import itertools
import json
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .geometry import Window
from .distributions import law_from_spec, condition_summary
from .components import (connected_components, crossing_exists,
                         covered_fraction, color_census)
from .sampling import (GibbsParams, BoundaryCondition, WidomRowlinsonChain,
                       RandomClusterChain, MultiTypeConfiguration,
                       sample_multitype_poisson, fk_coloring,
                       effective_sample_size,
                       dump_multitype_configuration, write_run_metadata)
from .analysis import (EntropyBoundInputs, EstimationError, phi_m,
                       small_z_threshold, domination_test)
from .slab import SlabParams, sample_slab, merged_intervals, p_from_ncc

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "derive_seed",
    "sweep_plan",
    "run_experiment",
    "emit_records",
    "load_records",
    "main",
]

# seed-mix constants; ports must copy these to reproduce the replica streams
SEED_MASK = (1 << 64) - 1
SEED_MIX_POINT = 0x9E3779B97F4A7C15
SEED_MIX_REPLICA = 0xD1B54A32D192ED03

_TOP_KEYS = {"experiment", "seed", "replicas", "sweeps", "out", "format",
             "threads", "params", "sweep", "dump_samples"}


class ConfigError(ValueError):
    """Invalid experiment configuration; ``problems`` lists every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _is_int(value):
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _non_finite(value, where):
    """A problem for each NaN or infinity in a JSON value; Python's json
    reads NaN, Infinity and -Infinity, which JSON has not."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [p for k, v in items for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, float) and not np.isfinite(value):
        return [f"{where}: {value} is not a number"]
    return []


def derive_seed(master, point_index, replica_index):
    """Stable 64-bit replica seed from (master, point, replica)."""
    x = (int(master) + SEED_MIX_POINT * (point_index + 1)
         + SEED_MIX_REPLICA * (replica_index + 1)) & SEED_MASK
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & SEED_MASK
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & SEED_MASK
    x ^= x >> 31
    return x


class ExperimentConfig:
    """Validated experiment description."""

    def __init__(self, kind, params, sweep, replicas, sweeps, seed, out,
                 fmt, dump_samples=False):
        self.kind = kind
        self.params = params
        self.sweep = sweep
        self.replicas = replicas
        self.sweeps = sweeps
        self.seed = seed
        self.out = out
        self.fmt = fmt
        self.dump_samples = dump_samples
        self.inputs = self._resolve_points()

    def _resolve_points(self):
        """Sampler inputs (laws, boundary, parameter objects) of every sweep
        point, built before any sampling so that a bad value is a config
        error and not a failed row.  ``params`` alone must resolve too, so
        that a value a sweep axis shadows is never a bad one."""
        resolve = _KINDS[self.kind].resolve
        inputs, problems = [], []
        if self.sweep:
            try:
                resolve(self.params)
            except (ValueError, TypeError, KeyError) as exc:
                problems.append(f"params: {exc}")
        for pi, point in enumerate(sweep_plan(self)):
            try:
                inputs.append(resolve({**self.params, **point}))
            except (ValueError, TypeError, KeyError) as exc:
                where = f"sweep point {pi} {point}" if point else "params"
                problems.append(f"{where}: {exc}")
        if problems:
            raise ConfigError(problems)
        return inputs

    @classmethod
    def from_dict(cls, raw, overrides=None):
        problems = []
        if not isinstance(raw, dict):
            raise ConfigError(["config must be a JSON object"])
        for key in raw:
            if key not in _TOP_KEYS:
                problems.append(f"unknown key {key!r}")
            problems += _non_finite(raw[key], key)
        kind = raw.get("experiment")
        spec = _KINDS[kind] if kind in EXPERIMENT_KINDS else None
        if spec is None:
            problems.append(
                f"experiment must be one of {', '.join(EXPERIMENT_KINDS)}; "
                f"got {kind!r}")
        keys = spec.required | spec.optional if spec else set()
        overrides = overrides or {}
        seed = overrides.get("seed", raw.get("seed"))
        if seed is None:
            problems.append("seed: a master seed is required (no wall-clock seeding)")
        elif not _is_int(seed) or seed < 0:
            problems.append("seed: must be a nonnegative integer")
        replicas = overrides.get("replicas", raw.get("replicas", 1))
        if not _is_int(replicas) or replicas < 1:
            problems.append("replicas: must be an integer >= 1")
        elif kind == "domination" and replicas < 2:
            problems.append("replicas: domination compares sample variances, "
                            "so it needs at least 2")
        sweeps = raw.get("sweeps", 100)
        if not _is_int(sweeps) or sweeps < 1:
            problems.append("sweeps: must be an integer >= 1")
        fmt = overrides.get("format", raw.get("format", "csv"))
        if fmt not in ("csv", "jsonl"):
            problems.append(f"format: must be csv or jsonl, got {fmt!r}")
        # accepted for stored configs and ignored: tasks run serially
        threads = raw.get("threads", 1)
        if not _is_int(threads) or threads < 1:
            problems.append("threads: must be an integer >= 1")
        out = overrides.get("out", raw.get("out"))
        dump_samples = raw.get("dump_samples", False)
        if not isinstance(dump_samples, bool):
            problems.append("dump_samples: must be a boolean")

        params = raw.get("params")
        if not isinstance(params, dict):
            problems.append("params: required object")
            params = {}
        elif spec:
            for key in params:
                if key not in keys:
                    problems.append(f"params.{key}: unknown for {kind}")
            for key in spec.required:
                if key not in params:
                    problems.append(f"params.{key}: required for {kind}")

        sweep_raw = raw.get("sweep", [])
        sweep = []
        if not isinstance(sweep_raw, list):
            problems.append("sweep: must be a list of axes")
        else:
            allowed = keys if spec is None or spec.sweep_q else keys - {"q"}
            for i, axis in enumerate(sweep_raw):
                if (not isinstance(axis, dict)
                        or set(axis) != {"name", "values"}):
                    problems.append(
                        f"sweep[{i}]: must be {{'name':…, 'values':[…]}}")
                    continue
                name, values = axis["name"], axis["values"]
                if not isinstance(name, str) or name not in allowed:
                    problems.append(
                        f"sweep[{i}].name: {name!r} is not a sweepable "
                        f"parameter of {kind}")
                elif name in [n for n, _ in sweep]:
                    problems.append(f"sweep[{i}].name: {name!r} repeats an axis")
                if not isinstance(values, list) or not values:
                    problems.append(f"sweep[{i}].values: nonempty list required")
                    continue
                sweep.append((name, list(values)))

        if problems:
            raise ConfigError(problems)
        return cls(kind=kind, params=params, sweep=sweep, replicas=replicas,
                   sweeps=sweeps, seed=seed, out=out, fmt=fmt,
                   dump_samples=dump_samples)

    @classmethod
    def from_file(cls, path, overrides=None):
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError([f"config is not valid JSON: {exc}"])
        return cls.from_dict(raw, overrides)

    def resolved(self):
        return {
            "experiment": self.kind, "seed": self.seed,
            "replicas": self.replicas, "sweeps": self.sweeps,
            "format": self.fmt, "params": self.params,
            "sweep": [{"name": n, "values": v} for n, v in self.sweep],
            "dump_samples": self.dump_samples,
        }


def sweep_plan(config):
    """Cartesian product of the sweep axes in declaration order (row-major);
    a single empty point when there are no axes."""
    if not config.sweep:
        return [{}]
    names = [n for n, _ in config.sweep]
    grids = [v for _, v in config.sweep]
    return [dict(zip(names, combo)) for combo in itertools.product(*grids)]


# ---------------------------------------------------------------- builders

def _window_from(value):
    if (not isinstance(value, list) or len(value) != 2):
        raise ValueError("window must be [[lower…], [upper…]]")
    return Window(*([_real(x, "window") for x in side]
                    if isinstance(side, list) else side for side in value))


def _boundary_from(value):
    if value is None:
        return BoundaryCondition.free()
    if not isinstance(value, dict):
        raise ValueError("boundary must be an object with a 'kind'")
    kind = value.get("kind")
    if kind == "free":
        if set(value) != {"kind"}:
            raise ValueError("free boundary takes no other fields")
        return BoundaryCondition.free()
    if kind == "ordered":
        if set(value) != {"kind", "color", "shell"}:
            raise ValueError("ordered boundary takes fields color, shell")
        return BoundaryCondition.ordered(_int_from(value, "color"),
                                         _real(value["shell"], "shell"))
    raise ValueError(f"unknown boundary kind {kind!r}")


def _laws_from(law, q):
    """One law per colour: a list of records, or one record for all q."""
    if isinstance(law, list):
        return tuple(law_from_spec(s) for s in law)
    return (law_from_spec(law),) * q


def _gibbs_from(merged):
    q = _int_from(merged, "q")
    z = merged["z"] if isinstance(merged["z"], list) else [merged["z"]] * q
    return GibbsParams(q=q, z=tuple(_real(v, "z") for v in z),
                       laws=_laws_from(merged["law"], q),
                       window=_window_from(merged["window"]),
                       boundary=_boundary_from(merged.get("boundary")))


def _symmetric_gibbs_from(merged):
    params = _gibbs_from(merged)
    if len(set(params.z)) != 1 or len(set(params.laws)) != 1:
        raise ValueError("fk-compare requires symmetric activities and laws")
    return params


def _int_from(merged, key, default=None, least=None):
    """``merged[key]`` (``default`` when absent) as a JSON integer: booleans
    and non-integral numbers are refused, not truncated."""
    value = merged.get(key, default)
    if not _is_int(value):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{key} must be >= {least}, got {value}")
    return value


def _real(value, key):
    """``value`` as a float: booleans are refused, not read as 1 or 0."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a real number, got {value!r}")
    return float(value)


def _optional_float(merged, key):
    return None if merged.get(key) is None else _real(merged[key], key)


def _domination_from(merged):
    params = _gibbs_from(merged)
    threshold = _optional_float(merged, "threshold")
    if threshold is None:
        threshold = round(params.expected_count)
    return params, threshold


def _crcm_from(merged):
    return (_window_from(merged["window"]), _real(merged["z"], "z"),
            law_from_spec(merged["law"]), _real(merged["q"], "q"),
            _int_from(merged, "probes", 1024, least=1))


def _slab_from(merged):
    params = SlabParams(n=_real(merged["n"], "n"), k=_real(merged["k"], "k"),
                        d=_int_from(merged, "d"), z=_real(merged["z"], "z"),
                        law=law_from_spec(merged["law"]))
    return params, _point_cell(merged["law"])


def _entropy_from(merged):
    q = _int_from(merged, "q")
    alpha = tuple(_real(a, "alpha") for a in merged["alpha"])
    laws = _laws_from(merged["law"], q)
    if len(alpha) != q or len(laws) != q:
        raise ValueError(f"alpha and law must have q = {q} entries")
    margins = {key: _real(merged[key], key)
               for key in ("beta", "gamma", "epsilon") if key in merged}
    if len(margins) not in (0, 3):
        raise ValueError("beta, gamma and epsilon must be given together or "
                         "not at all")
    # nothing here involves phi, so the inputs are checked before sampling
    # with placeholder phi values; the runner puts the sampled ones in
    tile = {"alpha": alpha, "m_side": _real(merged["m_side"], "m_side"),
            "d": _int_from(merged, "d"), "phi": (0.0,) * q}
    if margins:
        inputs = EntropyBoundInputs(**tile, **margins)
        inputs.validate_margins()
    else:
        inputs = EntropyBoundInputs.with_default_margins(**tile)
    return laws, inputs, _int_from(merged, "phi_probes", 20000, least=1)


def _condition_from(merged):
    return (law_from_spec(merged["law"]), _int_from(merged, "d"),
            _int_from(merged, "q", 2), _optional_float(merged, "q_bar"),
            _optional_float(merged, "k"))


def _point_cell(value):
    """CSV/JSONL representation of a swept value (dict laws -> stable JSON)."""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return value


# ---------------------------------------------------------------- runners

def _second_half(chain, sweeps, attr):
    """Run ``sweeps`` sweeps; the chain's ``attr`` after each of the last
    ``sweeps - sweeps // 2`` (the series behind the ESS column)."""
    series = []
    for s in range(sweeps):
        chain.sweep()
        if s >= sweeps // 2:
            series.append(getattr(chain, attr))
    return series


def _geometry_columns(config, window, probes):
    """The n_cc, crossing (along axis 0) and covered_fraction columns."""
    labeling = connected_components(config)
    return {"n_cc": labeling.n_cc,
            "crossing": int(crossing_exists(labeling, config, window, axis=0)),
            "covered_fraction": covered_fraction(config, window, probes)}


def _run_wr_sample(cfg, inputs, rng):
    params, probes = inputs
    chain = WidomRowlinsonChain(params, rng)
    totals = _second_half(chain, cfg.sweeps, "total_count")
    state = chain.state()
    census = color_census(state)
    row = {f"count_{i + 1}": int(c) for i, c in enumerate(census.counts)}
    row.update(_geometry_columns(state.merged()[0], params.window, probes),
               total_count=int(census.counts.sum()),
               dominant_fraction=census.dominant_fraction,
               monochromatic=int(census.monochromatic),
               acceptance_rate=chain.acceptance_rate,
               ess_total=effective_sample_size(totals))
    return [row], state


def _run_crcm_sample(cfg, inputs, rng):
    window, z, law, q, probes = inputs
    chain = RandomClusterChain(window, z, law, q, rng)
    counts = _second_half(chain, cfg.sweeps, "n")
    state = chain.state()
    row = {"count": len(state), **_geometry_columns(state, window, probes),
           "acceptance_rate": chain.acceptance_rate,
           "ess_count": effective_sample_size(counts)}
    return [row], MultiTypeConfiguration([state])


def _run_fk_compare(cfg, params, rng):
    q = params.q
    cluster = RandomClusterChain(params.window, params.z[0], params.laws[0],
                                 q, rng)
    cluster.run(cfg.sweeps)
    colored = fk_coloring(cluster.state(), q, rng)
    wr = WidomRowlinsonChain(params, rng)
    wr.run(cfg.sweeps)
    rows = []
    for pipeline, mc in (("fk", colored), ("wr", wr.state())):
        census = color_census(mc)
        row = {f"count_{i + 1}": int(c) for i, c in enumerate(census.counts)}
        rows.append({"pipeline": pipeline, **row,
                     "total_count": int(census.counts.sum()),
                     "n_cc": connected_components(mc.merged()[0]).n_cc,
                     "polychromatic": int(not census.monochromatic)})
    return rows, None


def _run_domination(cfg, inputs, rng):
    params, threshold = inputs
    chain = WidomRowlinsonChain(params, rng)
    chain.run(cfg.sweeps)
    wr_total = chain.total_count
    po_total = sample_multitype_poisson(params, rng).total_count()
    row = {
        "wr_total": wr_total,
        "wr_exceed": int(wr_total >= threshold),
        "poisson_total": po_total,
        "poisson_exceed": int(po_total >= threshold),
    }
    return [row], None


def _run_slab_renewal(cfg, inputs, rng):
    params, law_cell = inputs
    config = sample_slab(params, rng)
    intervals = merged_intervals(config, params)
    # the last interval ends at the largest shadow end
    end = float(intervals[-1, 1]) if len(intervals) else -np.inf
    row = {
        "n": params.n,
        "k": params.k,
        "z": params.z,
        "law": law_cell,
        "count": len(config),
        "n_cc_right": len(intervals),
        "right_edge_reached": int(end >= params.n),
        "right_edge_reached_half": int(end >= params.n / 2.0),
    }
    return [row], None


def _run_entropy_certificate(cfg, inputs, rng):
    laws, inputs, probes = inputs
    phi = tuple(phi_m(l, inputs.m_side, inputs.d, probes=probes, rng=rng)[0]
                for l in laws)
    inputs = dataclasses.replace(inputs, phi=phi)
    cert = small_z_threshold(inputs)
    row = {f"phi_{i + 1}": p for i, p in enumerate(phi)}
    row.update({
        "beta": inputs.beta, "gamma": inputs.gamma, "epsilon": inputs.epsilon,
        "z_star": cert.z_star, "psi_at_z": cert.psi_at_z,
        "bound_at_z": cert.bound_at_z, "margin": cert.margin,
    })
    return [row], None


def _run_condition_check(cfg, inputs, rng):
    law, d, q, q_bar, k = inputs
    # the tilde_atom columns stay empty unless q_bar and k are both given
    summary = condition_summary(law, d, q, q_bar=q_bar, k=k)
    row = {key: int(value) if isinstance(value, bool) else value
           for key, value in summary.items()}
    return [row], None


# ---------------------------------------------------------------- summaries

def _summarize_domination(rows):
    report = domination_test(
        {"total_count": [r["wr_total"] for r in rows],
         "threshold_exceedance": [r["wr_exceed"] for r in rows]},
        {"total_count": [r["poisson_total"] for r in rows],
         "threshold_exceedance": [r["poisson_exceed"] for r in rows]},
        min_samples=2)
    observables = [
        {"observable": row.observable, "z_score": row.z_score,
         "sample_mean": row.sample_mean,
         "reference_mean": row.reference_mean, "passed": row.passed}
        for row in report.rows]
    return {"observables": observables, "passed": report.passed}


def _summarize_slab(rows):
    try:
        est = p_from_ncc([r["n_cc_right"] for r in rows])
    except EstimationError:  # every replica drew an empty slab
        return {}
    return {"p_hat": est.p_hat, "p_stderr": est.stderr,
            "inverse_mean_ncc": est.inverse_mean, "n_nonempty": est.n_nonempty}


def _summarize_fk(rows):
    entry = {}
    for pipeline in ("fk", "wr"):
        sel = [r for r in rows if r["pipeline"] == pipeline]
        if sel:
            entry[f"{pipeline}_mean_total"] = float(
                np.mean([r["total_count"] for r in sel]))
            entry[f"{pipeline}_poly_rate"] = float(
                np.mean([r["polychromatic"] for r in sel]))
    return entry


# ---------------------------------------------------------------- kinds

class _Kind(NamedTuple):
    """Everything the runner knows of one experiment kind."""

    required: set  # param keys that must be given
    optional: set  # param keys that may be given
    resolve: Callable  # merged sweep-point params -> the runner's inputs
    run: Callable  # (config, inputs, rng) -> (rows, state to dump or None)
    columns: tuple  # the kind's own columns; "{i}" marks one per colour
    summarize: Callable | None = None  # a point's error-free rows -> fields

    @property
    def sweep_q(self):
        # per-colour columns fix the colour count for the whole run
        return not any("{i}" in col for col in self.columns)


_GIBBS_KEYS = {"q", "z", "law", "window"}

_KINDS = {
    "wr-sample": _Kind(
        _GIBBS_KEYS, {"boundary", "probes"},
        resolve=lambda merged: (_gibbs_from(merged),
                                _int_from(merged, "probes", 1024, least=1)),
        run=_run_wr_sample,
        columns=("count_{i}", "total_count", "n_cc", "crossing",
                 "covered_fraction", "dominant_fraction", "monochromatic",
                 "acceptance_rate", "ess_total")),
    "crcm-sample": _Kind(
        _GIBBS_KEYS, {"probes"}, resolve=_crcm_from, run=_run_crcm_sample,
        columns=("count", "n_cc", "crossing", "covered_fraction",
                 "acceptance_rate", "ess_count")),
    "fk-compare": _Kind(
        _GIBBS_KEYS, set(), resolve=_symmetric_gibbs_from, run=_run_fk_compare,
        columns=("pipeline", "count_{i}", "total_count", "n_cc",
                 "polychromatic"),
        summarize=_summarize_fk),
    "domination": _Kind(
        _GIBBS_KEYS, {"boundary", "threshold"}, resolve=_domination_from,
        run=_run_domination,
        columns=("wr_total", "wr_exceed", "poisson_total", "poisson_exceed"),
        summarize=_summarize_domination),
    "slab-renewal": _Kind(
        {"n", "k", "d", "z", "law"}, set(), resolve=_slab_from,
        run=_run_slab_renewal,
        columns=("n", "k", "z", "law", "count", "n_cc_right",
                 "right_edge_reached", "right_edge_reached_half"),
        summarize=_summarize_slab),
    "entropy-certificate": _Kind(
        {"q", "alpha", "m_side", "d", "law"},
        {"beta", "gamma", "epsilon", "phi_probes"}, resolve=_entropy_from,
        run=_run_entropy_certificate,
        columns=("phi_{i}", "beta", "gamma", "epsilon", "z_star", "psi_at_z",
                 "bound_at_z", "margin")),
    "condition-check": _Kind(
        {"law", "d"}, {"q", "q_bar", "k"}, resolve=_condition_from,
        run=_run_condition_check,
        columns=("integrable", "moment", "coverage_condition",
                 "coverage_method", "coverage_inconclusive",
                 "coverage_conjectured", "atom", "atom_strict",
                 "atom_conjectured", "tilde_atom", "tilde_atom_strict")),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def experiment_schema(config):
    """Fixed column list for the configured experiment.  Sweep axes whose
    name already appears among the kind's own columns (slab geometry, say)
    are not duplicated in the prefix."""
    kind_cols = []
    for col in _KINDS[config.kind].columns:
        if "{i}" in col:
            kind_cols += [col.format(i=i + 1)
                          for i in range(config.params["q"])]
        else:
            kind_cols.append(col)
    axes = [name for name, _ in config.sweep if name not in kind_cols]
    return axes + ["replica", "seed"] + kind_cols + ["error"]


def _summarize(config, point, rows):
    """Aggregates of one sweep point's rows, for the kinds that define them."""
    entry = {name: _point_cell(point[name]) for name, _ in config.sweep}
    rows = [r for r in rows if not r["error"]]
    summarize = _KINDS[config.kind].summarize
    if summarize and rows:
        entry.update(summarize(rows))
    return entry


def run_experiment(config):
    """Execute every (sweep point, replica) task in one serial loop.

    Returns (records, summary, final states for dumping).  Replica seed =
    mix(master seed, point index, replica index); rows are ordered by
    (point index, replica index), and each point is summarised from its own
    rows.  A failing task yields a row with its ``error`` field set; the run
    continues.
    """
    schema = experiment_schema(config)
    runner = _KINDS[config.kind].run
    records, summary, states = [], [], {}
    for pi, point in enumerate(sweep_plan(config)):
        # a cell the runner's row leaves out: the swept value, the task's
        # replica and seed, an empty error, or else None
        fill = dict.fromkeys(schema)
        fill.update((name, _point_cell(point[name])) for name, _ in config.sweep)
        fill["error"] = ""
        point_rows = []
        for ri in range(config.replicas):
            seed = fill["seed"] = derive_seed(config.seed, pi, ri)
            fill["replica"] = ri
            try:
                rows, state = runner(config, config.inputs[pi],
                                     np.random.default_rng(seed))
            except Exception as exc:  # runtime sampler failure: flag, continue
                rows, state = [{"error": f"{type(exc).__name__}: {exc}"}], None
            rows = [{key: row.get(key, fill[key]) for key in schema}
                    for row in rows]
            point_rows.extend(rows)
            if state is not None:
                states[(pi, ri)] = (state, rows[0])
        records.extend(point_rows)
        summary.append(_summarize(config, point, point_rows))
    return records, {"points": summary}, states


# ---------------------------------------------------------------- emission

def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    """``value`` with each non-finite float as its CSV cell text ("inf",
    "-inf", "nan"), which JSON can hold; None stays "not computed"."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return _format_cell(value)
    return value


def emit_records(records, schema, out_stem, fmt, metadata):
    """Write the record stream plus the metadata sidecar; returns the paths.

    csv: fixed header then one row per record, all floats in shortest
    round-trip form.  jsonl: one JSON object per record with identical field
    names.  The sidecar ``<stem>.meta.json`` holds the tool version, resolved
    config and master seed.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"format must be csv or jsonl, got {fmt!r}")
    path = f"{out_stem}.{fmt}"
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            # a "\r\n" terminator makes the writer quote cells holding a
            # bare "\r" too; each row still ends in "\n"
            writer = csv.writer(SimpleNamespace(
                write=lambda row: fh.write(row[:-2] + "\n")),
                lineterminator="\r\n")
            writer.writerow(schema)
            for record in records:
                writer.writerow([_format_cell(record.get(k)) for k in schema])
    else:
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(_json_safe(
                    {k: record.get(k) for k in schema})) + "\n")
    meta_path = f"{out_stem}.meta.json"
    with open(meta_path, "w") as fh:
        json.dump(_json_safe(metadata), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, meta_path]


_INT_RE = re.compile(r"[+-]?\d+$")


def _parse_cell(text):
    # the emitter writes ints bare and floats via repr(), so this inversion
    # is exact for round-tripping
    if text == "":
        return None
    if _INT_RE.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def load_records(path):
    """Parse an emitted CSV back into (schema, records); re-emitting the
    result reproduces the file byte for byte."""
    with open(path, newline="") as fh:
        schema, *rows = csv.reader(fh)
    return schema, [{k: _parse_cell(v) for k, v in zip(schema, row)}
                    for row in rows]


def _dump_states(config, states, out_stem):
    for (pi, ri), (state, row) in sorted(states.items()):
        base = f"{out_stem}.p{pi:03d}r{ri:03d}"
        dump_multitype_configuration(state, base + ".balls.txt")
        meta = {
            "experiment": config.kind,
            "point_index": pi,
            "replica": ri,
            "seed": row["seed"],
            "sweeps": config.sweeps,
        }
        keys = ("acceptance_rate", "ess_total", "ess_count")
        meta.update((k, row[k]) for k in keys if row.get(k) is not None)
        write_run_metadata(base + ".run.txt", meta)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wrsim", description="hard-core/cluster model experiment runner")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--replicas", type=int, help="override replica count")
    parser.add_argument("--out", help="output stem (overrides config)")
    parser.add_argument("--format", choices=("csv", "jsonl"),
                        help="override output format")
    args = parser.parse_args(argv)

    overrides = {key: value for key, value in vars(args).items()
                 if key != "config" and value is not None}
    try:
        config = ExperimentConfig.from_file(args.config, overrides)
        if not config.out:
            raise ConfigError(["out: an output stem is required"])
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    # fail on unwritable output before any sampling happens
    probe_path = f"{config.out}.{config.fmt}"
    try:
        with open(probe_path, "w"):
            pass
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4

    records, summary, states = run_experiment(config)
    metadata = {
        "tool_version": __version__,
        "master_seed": config.seed,
        "config": config.resolved(),
        "summary": summary,
    }
    try:
        emit_records(records, experiment_schema(config), config.out,
                     config.fmt, metadata)
        if config.dump_samples:
            _dump_states(config, states, config.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 3 if any(r["error"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
