"""The four benchmark workloads.

Each workload has three steps, run for every round:

* ``setup(seed, workdir)`` imports wrsim and builds and validates the
  config or parameters; it makes no random draw;
* ``run(ctx)`` is the timed part, ending when the last output is written;
* ``check(ctx, out, checks)`` compares every output with computations the
  benchmark makes itself (:mod:`reference`), outside the timed part.

:mod:`reference` is imported by the checks only, so that set-up time and
the first round's peak memory count wrsim's imports and not the
benchmark's.

``operations`` is the number of checks one round makes, the same for every
seed, so the share of failed operations does not depend on the seed or on
how many rounds a run fits in.
"""

import csv
import json
import math
import os
from types import SimpleNamespace

import numpy as np

# A statistical check fails by chance with probability about 6e-7 at 5
# standard errors; the benchmark makes thousands of such checks, so 3 would
# raise false alarms.
STAT_SE = 5.0


class Checks:
    """Counts checks made and failed; an operation is one check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return bool(ok)

    def fail(self, count, what):
        """Count ``count`` checks that could not be made as failed: the
        program raised, or an output was missing or malformed."""
        self.attempted += count
        self.failed += count
        self.messages.append(what)


def _write_config(workdir, raw):
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------------ wr-large

class WrLarge:
    """CLI ``wr-sample``: q=2, z=1, 50x50 window, 4096 coverage probes and
    sample dumps; one sweep axis over the radius law (Dirac 0.5, Pareto
    alpha=1.2 xmin=0.2), one replica per point, one thread."""

    name = "wr-large"
    sweeps = 4
    side = 50.0
    probes = 4096
    laws = ({"kind": "dirac", "radius": 0.5},
            {"kind": "pareto", "alpha": 1.2, "xmin": 0.2})
    coverage_points = 20000
    operations = 2 + 7 * len(laws)

    def setup(self, seed, workdir):
        import wrsim.cli as cli
        raw = {
            "experiment": "wr-sample", "seed": seed, "replicas": 1,
            "sweeps": self.sweeps, "out": os.path.join(workdir, "wr"),
            "format": "csv", "threads": 1, "dump_samples": True,
            "params": {"q": 2, "z": 1.0, "law": self.laws[0],
                       "window": [[0.0, 0.0], [self.side, self.side]],
                       "probes": self.probes},
            "sweep": [{"name": "law", "values": list(self.laws)}],
        }
        path = _write_config(workdir, raw)
        cli.ExperimentConfig.from_file(path)
        return SimpleNamespace(cli=cli, path=path, stem=raw["out"], seed=seed)

    def run(self, ctx):
        # looked up now, so that a traced round calls the traced main
        return ctx.cli.main(["--config", ctx.path])

    def check(self, ctx, code, checks):
        import reference as ref
        checks.expect(code == 0, f"exit code {code}")
        rows = _read_csv(ctx.stem + ".csv")
        checks.expect(len(rows) == len(self.laws), f"{len(rows)} rows")
        lower, upper = np.zeros(2), np.full(2, self.side)
        rng = np.random.default_rng([ctx.seed, 1])
        for pi in range(len(self.laws)):
            row = rows[pi] if pi < len(rows) else {}
            checks.expect(row.get("error") == "", f"point {pi}: error {row.get('error')!r}")
            data = np.loadtxt(f"{ctx.stem}.p{pi:03d}r000.balls.txt", ndmin=2)
            data = data.reshape(-1, 4)
            colours, centers, radii = data[:, 0].astype(int), data[:, 1:3], data[:, 3]
            checks.expect(bool(np.all((centers >= lower) & (centers <= upper))
                               and np.all(radii >= 0)),
                          f"point {pi}: ball outside the window")
            checks.expect(ref.cross_colour_overlaps(centers, radii, colours) == 0,
                          f"point {pi}: balls of distinct colours overlap")
            counts = [int((colours == c).sum()) for c in (1, 2)]
            checks.expect(counts == [int(row.get("count_1", -1)),
                                     int(row.get("count_2", -1))]
                          and sum(counts) == int(row.get("total_count", -1)),
                          f"point {pi}: counts {counts} vs row")
            n_cc, lab = ref.labels(centers, radii)
            checks.expect(n_cc == int(row.get("n_cc", -1)),
                          f"point {pi}: n_cc {row.get('n_cc')} vs {n_cc}")
            crossing = ref.crossing(centers, radii, lab, lower, upper)
            checks.expect(int(crossing) == int(row.get("crossing", -1)),
                          f"point {pi}: crossing {row.get('crossing')} vs {crossing}")
            p, se = ref.coverage(centers, radii, lower, upper,
                                 self.coverage_points, rng)
            # the program's stratified probes err less than i.i.d. ones
            tol = STAT_SE * math.sqrt(se ** 2 + p * (1 - p) / self.probes)
            got = float(row.get("covered_fraction", "nan"))
            checks.expect(abs(got - p) <= tol,
                          f"point {pi}: covered_fraction {got} vs {p} +- {tol}")


# ----------------------------------------------------------------- crcm-slab

class CrcmSlab:
    """``RandomClusterChain`` on supercritical k=1, d=2 slabs with q=2:
    Pareto(0.5, 0.5) at z=6 on n=16 and n=32 (the c11 cluster case), and
    Dirac(0.8) at z=3 on n=60."""

    name = "crcm-slab"
    cases = (({"kind": "pareto", "alpha": 0.5, "xmin": 0.5}, 6.0, 16.0, 25),
             ({"kind": "pareto", "alpha": 0.5, "xmin": 0.5}, 6.0, 32.0, 12),
             ({"kind": "dirac", "radius": 0.8}, 3.0, 60.0, 10))
    # a chain's cost depends on whether a giant ball joins everything, so
    # one chain per case would make the round time follow the seed
    chains = 2
    operations = 2 * chains * len(cases)

    def setup(self, seed, workdir):
        from wrsim import RandomClusterChain, SlabParams, law_from_spec
        slabs = [(SlabParams(n=n, k=1.0, d=2, z=z, law=law_from_spec(law),
                             q=2.0, q_bar=2.5), sweeps)
                 for law, z, n, sweeps in self.cases]
        return SimpleNamespace(chain=RandomClusterChain, slabs=slabs,
                               rng=np.random.default_rng(seed))

    def run(self, ctx):
        out = []
        for slab, sweeps in ctx.slabs:
            for _ in range(self.chains):
                chain = ctx.chain(slab.window, slab.z, slab.law, slab.q, ctx.rng)
                chain.run(sweeps)
                out.append((slab, chain.state(), chain.state_n_cc()))
        return out

    def check(self, ctx, out, checks):
        import reference as ref
        for slab, state, n_cc in out:
            centers, radii = np.asarray(state.centers), np.asarray(state.radii)
            window = slab.window
            checks.expect(bool(np.all((centers >= window.lower)
                                      & (centers <= window.upper))),
                          f"n={slab.n}: centre outside the slab")
            want, _ = ref.labels(centers, radii)
            checks.expect(n_cc == want, f"n={slab.n}: state_n_cc {n_cc} vs {want}")


# ------------------------------------------------------------ crossval-small

class CrossvalSmall:
    """The c02/c03 cross-validation on [0,3]^2 with q=2, z=0.5, Dirac(0.5):
    rejection samples, the hard-core chain and the cluster chain with FK
    colouring, each state labelled, plus the rejection entropy estimate."""

    name = "crossval-small"
    rejection = 750
    wr_sweeps = 2000
    crcm_sweeps = 1500
    entropy_draws = 7500
    burn = 0.1
    observables = ("count_1", "count_2", "n_cc")
    operations = 2 * rejection + 3 + 2 * (crcm_sweeps // 2) + 1

    def setup(self, seed, workdir):
        import wrsim
        from wrsim import sampling
        params = wrsim.GibbsParams.symmetric(
            q=2, z=0.5, law=wrsim.DiracRadius(0.5),
            window=wrsim.Window.cube(3.0, 2))
        return SimpleNamespace(wrsim=wrsim, sampling=sampling, params=params,
                               rng=np.random.default_rng(seed))

    def run(self, ctx):
        w, params, rng = ctx.wrsim, ctx.params, ctx.rng
        label = w.connected_components
        samples, _ = ctx.sampling.sample_wr_rejection_many(
            params, self.rejection, rng)
        sample_ncc = [label(mc.merged()[0]).n_cc for mc in samples]

        chain = w.WidomRowlinsonChain(params, rng)
        series = {name: [] for name in self.observables}
        for _ in range(self.wr_sweeps):
            chain.sweep()
            counts = chain.counts
            series["count_1"].append(int(counts[0]))
            series["count_2"].append(int(counts[1]))
            series["n_cc"].append(label(chain.state().merged()[0]).n_cc)
        burn = int(self.burn * self.wr_sweeps)
        ess = {name: w.effective_sample_size(x[burn:]) for name, x in series.items()}

        cluster = w.RandomClusterChain(params.window, params.z[0], params.laws[0],
                                       params.q, rng)
        colourings = []
        for s in range(self.crcm_sweeps):
            cluster.sweep()
            if s % 2 == 0:
                blind = cluster.state()
                colourings.append((blind, w.fk_coloring(blind, params.q, rng)))

        entropy = w.entropy_upper_estimate(params, self.entropy_draws, rng)
        return SimpleNamespace(samples=samples, sample_ncc=sample_ncc,
                               series=series, burn=burn, ess=ess,
                               colourings=colourings, entropy=entropy)

    @staticmethod
    def _balls(mc):
        centers = np.concatenate([np.asarray(c.centers) for c in mc.configs])
        radii = np.concatenate([np.asarray(c.radii) for c in mc.configs])
        colours = np.concatenate([np.full(len(c.radii), i + 1)
                                  for i, c in enumerate(mc.configs)])
        return centers, radii, colours

    def check(self, ctx, out, checks):
        import reference as ref
        rejected = {name: [] for name in self.observables}
        for k, (mc, n_cc) in enumerate(zip(out.samples, out.sample_ncc)):
            centers, radii, colours = self._balls(mc)
            checks.expect(ref.cross_colour_overlaps(centers, radii, colours) == 0,
                          f"rejection sample {k} is not authorized")
            want, _ = ref.labels(centers, radii)
            checks.expect(n_cc == want, f"rejection sample {k}: n_cc {n_cc} vs {want}")
            rejected["count_1"].append(int((colours == 1).sum()))
            rejected["count_2"].append(int((colours == 2).sum()))
            rejected["n_cc"].append(want)
        for name in self.observables:
            mean_c, se_c = ref.mean_se_chain(out.series[name][out.burn:])
            mean_r, se_r = ref.mean_se_iid(rejected[name])
            tol = STAT_SE * math.hypot(se_c, se_r)
            checks.expect(abs(mean_c - mean_r) <= tol,
                          f"{name}: chain {mean_c:.4f} vs rejection {mean_r:.4f}"
                          f" (tolerance {tol:.4f})")
        for k, (blind, mc) in enumerate(out.colourings):
            centers, radii, colours = self._balls(mc)
            checks.expect(ref.cross_colour_overlaps(centers, radii, colours) == 0,
                          f"colouring {k} is not authorized")
            checks.expect(ref.same_balls(centers, radii, np.asarray(blind.centers),
                                         np.asarray(blind.radii)),
                          f"colouring {k} does not project onto its input")
        est = out.entropy
        ceiling = float(sum(ctx.params.z))
        checks.expect(0.0 <= est.estimate <= ceiling + 3.0 * est.stderr,
                      f"entropy estimate {est.estimate} outside [0, {ceiling}]")


# -------------------------------------------------------------- slab-renewal

class SlabRenewal:
    """CLI ``slab-renewal``: d=2, k=0.5, Pareto(0.7, 0.3) as in c07; a
    sweep n in {20, 40, 80} x z in {4, 8} with many replicas per point, run
    on a two-thread worker pool."""

    name = "slab-renewal"
    n_values = (20, 40, 80)
    z_values = (4, 8)
    k = 0.5
    replicas = 600
    threads = 2
    law = {"kind": "pareto", "alpha": 0.7, "xmin": 0.3}
    points = len(n_values) * len(z_values)
    operations = 2 + 4 * points * replicas + 3 * points

    def setup(self, seed, workdir):
        import wrsim.cli as cli
        raw = {
            "experiment": "slab-renewal", "seed": seed,
            "replicas": self.replicas, "out": os.path.join(workdir, "slab"),
            "format": "csv", "threads": self.threads,
            "params": {"n": self.n_values[0], "k": self.k, "d": 2,
                       "z": self.z_values[0], "law": self.law},
            "sweep": [{"name": "n", "values": list(self.n_values)},
                      {"name": "z", "values": list(self.z_values)}],
        }
        path = _write_config(workdir, raw)
        cli.ExperimentConfig.from_file(path)
        return SimpleNamespace(cli=cli, path=path, stem=raw["out"])

    def run(self, ctx):
        # looked up now, so that a traced round calls the traced main
        return ctx.cli.main(["--config", ctx.path])

    def check(self, ctx, code, checks):
        import reference as ref
        checks.expect(code == 0, f"exit code {code}")
        rows = _read_csv(ctx.stem + ".csv")
        with open(ctx.stem + ".meta.json") as fh:
            summary = json.load(fh)["summary"]["points"]
        want_rows = self.points * self.replicas
        checks.expect(len(rows) == want_rows, f"{len(rows)} rows, want {want_rows}")
        by_point = {}
        for i in range(want_rows):
            row = rows[i] if i < len(rows) else {}
            count = int(row.get("count", -1))
            ncc = int(row.get("n_cc_right", -2))
            checks.expect(row.get("error") == "", f"row {i}: error {row.get('error')!r}")
            checks.expect(0 <= ncc <= count, f"row {i}: n_cc_right {ncc} > count {count}")
            checks.expect((ncc == 0) == (count == 0),
                          f"row {i}: n_cc_right {ncc} with count {count}")
            checks.expect(int(row.get("right_edge_reached", 2))
                          <= int(row.get("right_edge_reached_half", -1)),
                          f"row {i}: edge reached at n but not at n/2")
            key = (float(row.get("n", "nan")), float(row.get("z", "nan")))
            by_point.setdefault(key, []).append((count, ncc))
        for pi, (n, z) in enumerate((n, z) for n in self.n_values
                                    for z in self.z_values):
            got = np.asarray(by_point.get((float(n), float(z)), [(0, 0)]), dtype=float)
            mean = z * n * self.k
            checks.expect(abs(got[:, 0].mean() - mean)
                          <= STAT_SE * math.sqrt(mean / len(got)),
                          f"n={n} z={z}: mean count {got[:, 0].mean()} vs {mean}")
            ncc = got[:, 1][got[:, 1] > 0]
            p_hat = float((ncc == 1).mean()) if len(ncc) else math.nan
            inv_mean = 1.0 / ncc.mean() if len(ncc) else math.nan
            entry = summary[pi] if pi < len(summary) else {}
            checks.expect(entry.get("n") == n and entry.get("z") == z
                          and math.isclose(entry.get("p_hat", -1), p_hat, rel_tol=1e-12)
                          and math.isclose(entry.get("inverse_mean_ncc", -1),
                                           inv_mean, rel_tol=1e-12),
                          f"n={n} z={z}: summary {entry} vs p_hat {p_hat},"
                          f" inverse mean {inv_mean}")
            se_p = math.sqrt(p_hat * (1 - p_hat) / len(ncc)) if len(ncc) else 0.0
            se_inv = (float(ncc.std(ddof=1)) / math.sqrt(len(ncc)) / ncc.mean() ** 2
                      if len(ncc) > 1 else 0.0)
            checks.expect(abs(p_hat - inv_mean) <= STAT_SE * math.hypot(se_p, se_inv),
                          f"n={n} z={z}: p_hat {p_hat} vs inverse mean {inv_mean}")


WORKLOADS = {w.name: w for w in (WrLarge(), CrcmSlab(), CrossvalSmall(),
                                 SlabRenewal())}
