"""Span tracing of wrsim from outside the program.

:func:`install` replaces each traced function or method of wrsim with a
wrapper that records a span: name, start, end, parent span and thread.  A
function is replaced in every wrsim module that binds it (``wrsim.cli``
imports ``connected_components`` by name, for example), so a call is traced
whichever module makes it.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.

Layer self time is computed from the spans.  A span's own intervals are its
duration minus the part its child spans cover; when threads run at once,
each instant is shared equally among the own intervals open at that
instant.  The layer self times plus the benchmark's own time then add up to
the traced wall time, also with a worker pool.
"""

import functools
import inspect
import itertools
import math
import os
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("distributions", "geometry", "components", "sampling", "analysis",
          "slab", "cli")
ROOT = "bench"

clock = time.perf_counter


class Tracer:
    """Span store shared by every wrapper that :func:`install` creates."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, thread)
        self.counts = Counter()  # work counts recorded at span boundaries
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = None
        self.start = self.end = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.open = Counter()
            if threading.get_ident() == self._main:
                self._main_stack = stack
        return stack

    def begin(self):
        """Start the root span: everything from here on is traced."""
        self.spans.clear()
        self.counts.clear()
        self.start = clock()

    def finish(self):
        self.end = clock()

    def wrap(self, fn, name, count=None, before=None):
        """Wrapper of ``fn`` recording a ``name`` span per call.

        For the outermost call of each name, ``count(args, result, start)``
        returns work counts to add up, with ``start = before(args)`` taken
        at entry.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # a pool thread: its work was caused by the main thread
                main = tracer._main_stack
                parent = main[-1] if main else 0
            sid = next(tracer._ids)
            open_ = tracer._local.open
            outer = open_[name] == 0
            start = before(args) if before and outer else None
            stack.append(sid)
            open_[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_[name] -= 1
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident()))
            if count and outer:
                for key, value in count(args, result, start).items():
                    tracer.counts[key] += value
            return result

        return traced

    def dump(self, path):
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            fh.write(f"0\t{ROOT}\t{self.start!r}\t{self.end!r}\t\t"
                     f"{self._main}\n")
            for sid, name, t0, t1, parent, thread in sorted(self.spans):
                fh.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{thread}\n")

    def summary(self):
        """Per-layer metrics of the spans recorded since :meth:`begin`."""
        spans = [s for s in self.spans if s[2] >= self.start and s[3] <= self.end]
        wall = self.end - self.start
        share = _self_shares(spans, self.start, self.end)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for sid, name, *_ in spans:
            out[f"{name.split('.')[0]}.self_s"] += share.get(sid, 0.0)
        out["trace.bench_self_s"] = share.get(0, 0.0)
        out["trace.wall_s"] = wall
        out["trace.spans"] = len(spans)
        # inclusive time and calls count outermost spans only, so a chain's
        # run() around its sweep() calls is not counted twice
        by_id = {s[0]: s for s in spans}
        inclusive = defaultdict(float)
        calls = Counter()
        for sid, name, t0, t1, parent, _ in spans:
            p = parent
            while p in by_id and by_id[p][1] != name:
                p = by_id[p][4]
            if p not in by_id:
                inclusive[name] += t1 - t0
                calls[name] += 1
        for name in set(inclusive) | set(calls):
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.calls"] = calls[name]
        out.update(self.counts)
        for chain in ("sampling.wr_chain", "sampling.crcm_chain"):
            proposals = out.get(f"{chain}.proposals", 0)
            out[f"{chain}.proposals_per_s"] = _ratio(proposals, out.get(f"{chain}.s", 0))
            out[f"{chain}.accept_ratio"] = _ratio(out.get(f"{chain}.accepted", 0),
                                                  proposals)
        out["sampling.rejection.authorized_ratio"] = _ratio(
            out.get("sampling.rejection.authorized", 0),
            out.get("sampling.rejection.attempts", 0))
        out["cli.tasks_per_s"] = _ratio(out.get("cli.tasks", 0),
                                        out.get("cli.run_experiment.s", 0))
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _self_shares(spans, start, end):
    """Fair-share self time of every span (and of the root, id 0)."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        children[parent].append((t0, t1))
    owners, lo, hi = [], [], []
    for sid, t0, t1 in [(0, start, end)] + [(s[0], s[2], s[3]) for s in spans]:
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            if c0 > cursor:
                owners.append(sid)
                lo.append(cursor)
                hi.append(min(c0, t1))
            cursor = max(cursor, c1)
        if cursor < t1:
            owners.append(sid)
            lo.append(cursor)
            hi.append(t1)
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    times = np.concatenate([lo, hi])
    steps = np.concatenate([np.ones(len(lo)), -np.ones(len(hi))])
    order = np.argsort(times, kind="stable")
    active = np.cumsum(steps[order])
    gaps = np.diff(times[order], append=times[order][-1])
    rate = np.divide(gaps, active, out=np.zeros_like(gaps), where=active > 0)
    cum = np.concatenate([[0.0], np.cumsum(rate)])
    position = np.empty(len(times), dtype=np.int64)
    position[order] = np.arange(len(times))
    got = cum[position[len(lo):]] - cum[position[:len(lo)]]
    share = defaultdict(float)
    for sid, value in zip(owners, got):
        share[sid] += float(value)
    return share


# ------------------------------------------------------------ what is traced

def _chain(layer):
    def before(args):
        return args[0].proposals, args[0].accepted

    def count(args, result, start):
        return {f"{layer}.proposals": args[0].proposals - start[0],
                f"{layer}.accepted": args[0].accepted - start[1]}
    return layer, count, before


def _rejection_many(args, result, start):
    samples, attempts = result
    return {"sampling.rejection.attempts": attempts,
            "sampling.rejection.authorized": len(samples)}


def _rejection_one(args, result, start):
    return {"sampling.rejection.attempts": result[1],
            "sampling.rejection.authorized": 1}


def _authorized_count(args, result, start):
    return {"sampling.rejection.attempts": args[1],
            "sampling.rejection.authorized": result}


def _balls(args, result, start):
    return {"components.connected_components.balls": len(args[0])}


def _pairs(args, result, start):
    return {"geometry.overlap_pairs.pairs": len(result)}


def _tasks(args, result, start):
    config = args[0]
    points = math.prod(len(values) for _, values in config.sweep)
    return {"cli.tasks": points * config.replicas}


def _emitted(args, result, start):
    return {"cli.emit.bytes": sum(os.path.getsize(p) for p in result)}


# (span name, count, before) of the callables not traced as a plain
# "<module>.<function>" span
_GROUPS = {
    ("sampling", "WidomRowlinsonChain.sweep"): _chain("sampling.wr_chain"),
    ("sampling", "WidomRowlinsonChain.run"): _chain("sampling.wr_chain"),
    ("sampling", "RandomClusterChain.sweep"): _chain("sampling.crcm_chain"),
    ("sampling", "RandomClusterChain.run"): _chain("sampling.crcm_chain"),
    ("sampling", "WidomRowlinsonChain.state"): ("sampling.state", None, None),
    ("sampling", "RandomClusterChain.state"): ("sampling.state", None, None),
    ("sampling", "MultiTypeConfiguration.merged"): ("sampling.state", None, None),
    ("sampling", "sample_wr_rejection_many"): ("sampling.rejection",
                                               _rejection_many, None),
    ("sampling", "sample_wr_rejection"): ("sampling.rejection",
                                          _rejection_one, None),
    ("sampling", "authorized_count"): ("sampling.rejection",
                                       _authorized_count, None),
    ("sampling", "dump_multitype_configuration"): ("sampling.dump", None, None),
    ("sampling", "write_run_metadata"): ("sampling.dump", None, None),
    ("components", "connected_components"): ("components.connected_components",
                                             _balls, None),
    ("geometry", "overlap_pairs"): ("geometry.overlap_pairs", _pairs, None),
    ("cli", "run_experiment"): ("cli.run_experiment", _tasks, None),
    ("cli", "emit_records"): ("cli.emit_records", _emitted, None),
    ("cli", "_dump_states"): ("cli.dump", None, None),
}

# methods traced besides every public module-level function
_METHODS = {
    "sampling": ("WidomRowlinsonChain.sweep", "WidomRowlinsonChain.run",
                 "WidomRowlinsonChain.state", "RandomClusterChain.sweep",
                 "RandomClusterChain.run", "RandomClusterChain.state",
                 "RandomClusterChain.state_n_cc",
                 "MultiTypeConfiguration.merged"),
    "cli": ("ExperimentConfig.from_dict", "ExperimentConfig.from_file"),
}

# private functions traced because a per-layer metric names them
_PRIVATE = {"cli": ("_dump_states",)}


def install(tracer):
    """Replace wrsim's traced callables with ``tracer``'s wrappers."""
    import importlib
    modules = {layer: importlib.import_module(f"wrsim.{layer}")
               for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in _PRIVATE.get(layer, ()):
                continue
            name, count, before = _GROUPS.get((layer, attr),
                                              (f"{layer}.{attr}", None, None))
            replaced[value] = tracer.wrap(value, name, count, before)
        for dotted in _METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            is_classmethod = isinstance(raw, classmethod)
            name, count, before = _GROUPS.get((layer, dotted),
                                              (f"{layer}.{meth}", None, None))
            wrapped = tracer.wrap(raw.__func__ if is_classmethod else raw,
                                  name, count, before)
            setattr(cls, meth, classmethod(wrapped) if is_classmethod else wrapped)
    # every radius law's own sample() is one "distributions.sample" span
    laws = [modules["distributions"].RadiusLaw]
    while laws:
        cls = laws.pop()
        laws.extend(cls.__subclasses__())
        if "sample" in cls.__dict__:
            cls.sample = tracer.wrap(cls.__dict__["sample"], "distributions.sample")
    for module in [sys.modules["wrsim"], *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
