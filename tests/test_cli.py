import json
import os
import pathlib

import numpy as np
import pytest

from wrsim.cli import (ConfigError, ExperimentConfig, derive_seed, sweep_plan,
                       run_experiment, emit_records, load_records,
                       experiment_schema, main, EXPERIMENT_KINDS, _KINDS)
from wrsim.sampling import load_multitype_configuration
from wrsim.slab import p_from_ncc

GOLDEN = pathlib.Path(__file__).parent / "golden"


def base_config(**over):
    raw = {
        "experiment": "wr-sample",
        "seed": 11,
        "replicas": 2,
        "sweeps": 30,
        "params": {
            "q": 2, "z": 0.5,
            "law": {"kind": "dirac", "radius": 0.5},
            "window": [[0, 0], [3, 3]],
        },
    }
    raw.update(over)
    return raw


class TestConfigValidation:
    def test_valid(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert cfg.kind == "wr-sample" and cfg.replicas == 2

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(base_config(bogus=1))
        assert any("bogus" in p for p in err.value.problems)

    def test_unknown_param_key(self):
        raw = base_config()
        raw["params"]["typo"] = 3
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert any("typo" in p for p in err.value.problems)

    def test_missing_seed(self):
        raw = base_config()
        del raw["seed"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert any("seed" in p for p in err.value.problems)

    def test_all_problems_listed(self):
        raw = base_config(bogus=1, replicas=0)
        del raw["seed"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert len(err.value.problems) >= 3

    def test_empty_sweep_axis(self):
        raw = base_config(sweep=[{"name": "z", "values": []}])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("kind", [
        "wr-sample", "crcm-sample", "fk-compare", "domination",
        "slab-renewal", "entropy-certificate", "condition-check"])
    def test_unsweepable_axis(self, kind):
        # q is fixed for the whole run exactly where the columns are per colour
        law = {"kind": "dirac", "radius": 0.2}
        params = {
            "slab-renewal": {"n": 10, "k": 0.5, "d": 2, "z": 1.0, "law": law},
            "entropy-certificate": {"q": 2, "alpha": [0.5, 0.5],
                                    "m_side": 4.0, "d": 2, "law": law},
            "condition-check": {"d": 2, "law": law},
        }.get(kind, base_config()["params"])
        raw = base_config(experiment=kind, params=params,
                          sweep=[{"name": "q", "values": [2, 3]}])
        if kind in ("wr-sample", "fk-compare", "entropy-certificate",
                    "slab-renewal"):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(raw)
            assert err.value.problems == [
                f"sweep[0].name: 'q' is not a sweepable parameter of {kind}"]
        else:
            cfg = ExperimentConfig.from_dict(raw)
            assert len(cfg.inputs) == 2

    def test_bad_law_in_one_sweep_point(self):
        raw = base_config(sweep=[{"name": "law", "values": [
            {"kind": "dirac", "radius": 0.5}, {"kind": "foo"}]}])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.problems == [
            "sweep point 1 {'law': {'kind': 'foo'}}: unknown law kind 'foo'"]

    def test_fk_compare_needs_symmetric_params(self):
        raw = base_config(experiment="fk-compare")
        raw["params"]["z"] = [0.5, 1.0]
        with pytest.raises(ConfigError, match="symmetric activities"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("kind, edit, problem", [
        ("wr-sample", {"params": {"z": float("nan")}}, "params.z: nan"),
        ("wr-sample", {"params": {"z": [0.5, float("inf")]}}, "params.z.1: inf"),
        ("crcm-sample", {"params": {"q": float("nan")}}, "params.q: nan"),
        ("wr-sample", {"params": {"law": {
            "kind": "atom_mixture", "p0": 0.2,
            "remainder": {"kind": "dirac", "radius": float("nan")}}}},
         "params.law.remainder.radius: nan"),
        ("wr-sample", {"sweep": [{"name": "z", "values": [0.5, -float("inf")]}]},
         "sweep.0.values.1: -inf"),
    ])
    def test_non_finite_number_refused(self, kind, edit, problem):
        # library callers pass floats straight in, with no JSON parser to
        # stop NaN and infinities before the config is built
        raw = base_config(experiment=kind)
        raw["params"].update(edit.get("params", {}))
        raw["sweep"] = edit.get("sweep", [])
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert f"{problem} is not a number" in err.value.problems

    @pytest.mark.parametrize("key, value", [("q", 2), ("q_bar", 2.5)])
    def test_slab_renewal_takes_no_cluster_weights(self, key, value):
        # the slab shadows are the Poisson Boolean model's; no weight enters
        raw = base_config(experiment="slab-renewal", params={
            "n": 10, "k": 0.5, "d": 2, "z": 1.0,
            "law": {"kind": "dirac", "radius": 0.2}, key: value})
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert err.value.problems == [f"params.{key}: unknown for slab-renewal"]

    # wr-sample writes every column and dump that phase-sweep did
    @pytest.mark.parametrize("kind", ["nope", ["wr-sample"], "phase-sweep"])
    def test_unknown_experiment(self, kind):
        with pytest.raises(ConfigError, match="experiment must be one of"):
            ExperimentConfig.from_dict(base_config(experiment=kind))


_GIBBS = base_config()["params"]
_ORDERED = {"kind": "ordered", "color": 1, "shell": 1.0}
_ENTROPY = {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
            "law": {"kind": "uniform", "low": 0.0, "high": 0.4},
            "phi_probes": 500}
_CONDITION = {"d": 2, "law": {"kind": "atom_mixture", "p0": 0.3, "remainder":
                              {"kind": "pareto", "alpha": 0.5, "xmin": 1.0}}}

# (kind, the optional keys of one entry): (base params, two values of
# them); keys that only act together share one entry
OPTIONAL_KEY_CASES = {
    ("wr-sample", ("boundary",)): (
        _GIBBS, {"boundary": {"kind": "free"}}, {"boundary": _ORDERED}),
    ("wr-sample", ("probes",)): (_GIBBS, {"probes": 4}, {"probes": 1024}),
    ("crcm-sample", ("probes",)): (_GIBBS, {"probes": 4}, {"probes": 1024}),
    ("domination", ("boundary",)): (
        _GIBBS, {"boundary": {"kind": "free"}}, {"boundary": _ORDERED}),
    ("domination", ("threshold",)): (
        _GIBBS, {"threshold": 0}, {"threshold": 1000}),
    ("entropy-certificate", ("beta", "gamma", "epsilon")): (
        _ENTROPY, {"beta": 0.95, "gamma": 0.1, "epsilon": 0.2},
        {"beta": 0.93, "gamma": 0.125, "epsilon": 0.25}),
    ("entropy-certificate", ("phi_probes",)): (
        _ENTROPY, {"phi_probes": 100}, {"phi_probes": 4000}),
    # an atom of 0.3 at zero is below 1/2 but not below 1/5
    ("condition-check", ("q",)): (_CONDITION, {"q": 2}, {"q": 5}),
    ("condition-check", ("q_bar", "k")): (
        _CONDITION, {"q_bar": 2.5, "k": 1.0}, {"q_bar": 5.0, "k": 2.0}),
}


class TestOptionalKeys:
    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_every_optional_key_changes_output(self, kind):
        # a kind accepts only what its run reads: each optional key needs a
        # case here, and changing its value changes some record or summary
        cases = {keys: case for (k, keys), case in OPTIONAL_KEY_CASES.items()
                 if k == kind}
        assert set().union(*cases) == _KINDS[kind].optional
        for keys, (params, *values) in cases.items():
            outputs = []
            for value in values:
                cfg = ExperimentConfig.from_dict({
                    "experiment": kind, "seed": 3, "replicas": 2, "sweeps": 5,
                    "params": {**params, **value}})
                records, summary, _ = run_experiment(cfg)
                assert all(r["error"] == "" for r in records)
                # repr, so that NaN cells compare equal
                outputs.append(repr((records, summary)))
            assert outputs[0] != outputs[1], keys


class TestSweepPlan:
    def test_two_by_one(self):
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="slab-renewal",
            params={"n": 10, "k": 0.5, "d": 2, "z": 1.0,
                    "law": {"kind": "dirac", "radius": 1.0}},
            sweep=[{"name": "z", "values": [1, 2]},
                   {"name": "k", "values": [0.5]}]))
        assert sweep_plan(cfg) == [{"z": 1, "k": 0.5}, {"z": 2, "k": 0.5}]

    def test_no_axes_single_point(self):
        cfg = ExperimentConfig.from_dict(base_config())
        assert sweep_plan(cfg) == [{}]

    def test_row_major_three_by_two(self):
        cfg = ExperimentConfig.from_dict(base_config(
            experiment="slab-renewal",
            params={"n": 10, "k": 0.5, "d": 2, "z": 1.0,
                    "law": {"kind": "dirac", "radius": 1.0}},
            sweep=[{"name": "z", "values": [1, 2, 3]},
                   {"name": "n", "values": [10, 20]}]))
        plan = sweep_plan(cfg)
        assert plan == [{"z": 1, "n": 10}, {"z": 1, "n": 20},
                        {"z": 2, "n": 10}, {"z": 2, "n": 20},
                        {"z": 3, "n": 10}, {"z": 3, "n": 20}]


class TestSeedDerivation:
    def test_frozen_values(self):
        # pinned so accidental changes to the mixing scheme are caught
        assert derive_seed(0, 0, 0) == 3246858695411730098
        assert derive_seed(42, 1, 2) == 10147698888343316186
        assert derive_seed(2 ** 63, 3, 5) == 5377667627713665142

    def test_distinct_across_grid(self):
        seeds = {derive_seed(7, pi, ri) for pi in range(50) for ri in range(50)}
        assert len(seeds) == 2500


class TestRunAndEmit:
    def test_records_and_summary(self):
        cfg = ExperimentConfig.from_dict(base_config(
            sweep=[{"name": "z", "values": [0.25, 0.5]}]))
        records, summary, _ = run_experiment(cfg)
        assert len(records) == 4
        schema = experiment_schema(cfg)
        assert all(list(r.keys()) == schema for r in records)
        assert all(r["error"] == "" for r in records)

    def test_deterministic_csv(self, tmp_path):
        raw = base_config(sweep=[{"name": "z", "values": [0.25, 0.5]}])
        paths = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig.from_dict(raw)
            records, summary, _ = run_experiment(cfg)
            stem = str(tmp_path / tag)
            emit_records(records, experiment_schema(cfg), stem, "csv",
                         {"tool_version": "x"})
            paths.append(stem + ".csv")
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_threads_key_is_ignored(self, tmp_path):
        # stored configs may carry "threads"; it selects nothing
        outputs = []
        for tag, extra in (("with", {"threads": 2}), ("without", {})):
            raw = base_config(out=str(tmp_path / tag), **extra,
                              sweep=[{"name": "z", "values": [0.25, 0.5]}])
            path = tmp_path / f"{tag}.json"
            path.write_text(json.dumps(raw))
            assert main(["--config", str(path)]) == 0
            outputs.append((tmp_path / f"{tag}.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_threads_must_be_positive(self):
        with pytest.raises(ConfigError, match="threads"):
            ExperimentConfig.from_dict(base_config(threads=0))

    def test_round_trip_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config())
        records, _, _ = run_experiment(cfg)
        stem = str(tmp_path / "rt")
        emit_records(records, experiment_schema(cfg), stem, "csv", {"v": 1})
        schema, parsed = load_records(stem + ".csv")
        emit_records(parsed, schema, str(tmp_path / "rt2"), "csv", {"v": 1})
        assert (open(stem + ".csv", "rb").read()
                == open(str(tmp_path / "rt2") + ".csv", "rb").read())

    def test_empty_stream_header_only(self, tmp_path):
        stem = str(tmp_path / "empty")
        emit_records([], ["a", "b", "error"], stem, "csv", {"v": 1})
        lines = open(stem + ".csv").read().splitlines()
        assert lines == ["a,b,error"]
        assert os.path.exists(stem + ".meta.json")

    def test_jsonl_mirrors_fields(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config())
        records, _, _ = run_experiment(cfg)
        stem = str(tmp_path / "mirror")
        emit_records(records, experiment_schema(cfg), stem, "jsonl", {"v": 1})
        rows = [json.loads(line) for line in open(stem + ".jsonl")]
        assert [list(r.keys()) for r in rows] \
            == [experiment_schema(cfg)] * len(rows)

    def test_carriage_return_cell_round_trips(self, tmp_path):
        stem = str(tmp_path / "cr")
        emit_records([{"a": "x\ry", "b": "\r"}], ["a", "b"], stem, "csv", {})
        assert open(stem + ".csv", "rb").read() == b'a,b\n"x\ry","\r"\n'
        assert load_records(stem + ".csv") == (["a", "b"],
                                               [{"a": "x\ry", "b": "\r"}])

    def test_single_row_field_order(self, tmp_path):
        stem = str(tmp_path / "one")
        emit_records([{"a": 1, "b": 0.5, "error": ""}], ["a", "b", "error"],
                     stem, "csv", {"v": 1})
        lines = open(stem + ".csv").read().splitlines()
        assert lines == ["a,b,error", "1,0.5,"]


class TestAllKindsRun:
    """Every experiment kind produces clean rows on a small budget."""

    def run_kind(self, raw):
        cfg = ExperimentConfig.from_dict(raw)
        records, summary, _ = run_experiment(cfg)
        assert records
        assert all(r["error"] == "" for r in records)
        assert all(list(r.keys()) == experiment_schema(cfg) for r in records)
        return records, summary

    def test_crcm_sample(self):
        self.run_kind({
            "experiment": "crcm-sample", "seed": 1, "replicas": 2, "sweeps": 20,
            "params": {"q": 2, "z": 0.5,
                       "law": {"kind": "dirac", "radius": 0.5},
                       "window": [[0, 0], [2, 2]]}})

    def test_fk_compare(self):
        records, summary = self.run_kind({
            "experiment": "fk-compare", "seed": 2, "replicas": 3, "sweeps": 20,
            "params": {"q": 2, "z": 0.5,
                       "law": {"kind": "dirac", "radius": 0.5},
                       "window": [[0, 0], [2, 2]]}})
        assert {r["pipeline"] for r in records} == {"fk", "wr"}
        assert len(records) == 6
        assert "fk_mean_total" in summary["points"][0]

    def test_domination(self):
        records, summary = self.run_kind({
            "experiment": "domination", "seed": 3, "replicas": 6, "sweeps": 20,
            "params": {"q": 2, "z": 0.5,
                       "law": {"kind": "dirac", "radius": 0.5},
                       "window": [[0, 0], [2, 2]]}})
        obs = summary["points"][0]["observables"]
        assert {o["observable"] for o in obs} \
            == {"total_count", "threshold_exceedance"}

    def test_phase_sweep(self):
        records, _ = self.run_kind({
            "experiment": "wr-sample", "seed": 4, "replicas": 2, "sweeps": 20,
            "params": {"q": 2, "z": 1.0,
                       "law": {"kind": "dirac", "radius": 0.5},
                       "window": [[0, 0], [2, 2]],
                       "boundary": {"kind": "ordered", "color": 1, "shell": 1.0}},
            "sweep": [{"name": "z", "values": [0.5, 2.0]}]})
        assert len(records) == 4
        assert all("dominant_fraction" in r for r in records)

    def test_phase_sweep_csv_trend(self, tmp_path):
        # dominant-colour fraction read back from the emitted CSV increases
        # along the activity sweep under a one-colour boundary
        raw = {
            "experiment": "wr-sample", "seed": 2024, "replicas": 6,
            "sweeps": 120, "out": str(tmp_path / "phase"),
            "params": {"q": 2, "z": 1.0,
                       "law": {"kind": "dirac", "radius": 0.5},
                       "window": [[0, 0], [3, 3]],
                       "boundary": {"kind": "ordered", "color": 1,
                                    "shell": 1.2}},
            "sweep": [{"name": "z", "values": [0.5, 2.0, 6.0]}]}
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        assert main(["--config", str(tmp_path / "cfg.json")]) == 0
        _, rows = load_records(str(tmp_path / "phase.csv"))
        by_z = {}
        for r in rows:
            by_z.setdefault(r["z"], []).append(r["dominant_fraction"])
        means = [np.mean(by_z[z]) for z in sorted(by_z)]
        assert means[-1] > means[0]
        assert means == sorted(means)

    def test_slab_renewal_summary(self):
        records, summary = self.run_kind({
            "experiment": "slab-renewal", "seed": 5, "replicas": 150,
            "params": {"n": 20, "k": 0.5, "d": 2, "z": 4.0,
                       "law": {"kind": "pareto", "alpha": 0.7, "xmin": 0.3}}})
        point = summary["points"][0]
        assert 0.0 < point["p_hat"] <= 1.0
        assert point["n_nonempty"] > 0
        # slab rows always carry the resolved geometry and law descriptor
        assert records[0]["n"] == 20.0 and records[0]["k"] == 0.5
        assert "pareto" in records[0]["law"]

    def test_slab_renewal_swept_axis_not_duplicated(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "slab-renewal", "seed": 5, "replicas": 2,
            "params": {"n": 10, "k": 0.5, "d": 2, "z": 2.0,
                       "law": {"kind": "dirac", "radius": 1.0}},
            "sweep": [{"name": "z", "values": [1.0, 2.0]}]})
        schema = experiment_schema(cfg)
        assert schema.count("z") == 1
        records, summary, _ = run_experiment(cfg)
        assert {r["z"] for r in records} == {1.0, 2.0}
        assert len(summary["points"]) == 2

    def test_duplicate_sweep_values_summarised_apart(self):
        # 4 and 4.0 are equal cells; each point still summarises only its
        # own replicas
        replicas = 40
        _, summary = self.run_kind({
            "experiment": "slab-renewal", "seed": 5, "replicas": replicas,
            "params": {"n": 20, "k": 0.5, "d": 2, "z": 4,
                       "law": {"kind": "pareto", "alpha": 0.7, "xmin": 0.3}},
            "sweep": [{"name": "z", "values": [4, 4.0]}]})
        assert len(summary["points"]) == 2
        for point in summary["points"]:
            assert 0 < point["n_nonempty"] <= replicas

    def test_entropy_certificate(self):
        # the tile fit probability must exceed alpha_max / beta for the
        # certificate to exist, hence the small radius against m_side = 4
        records, _ = self.run_kind({
            "experiment": "entropy-certificate", "seed": 6,
            "params": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
                       "law": {"kind": "dirac", "radius": 0.2},
                       "phi_probes": 4000}})
        assert records[0]["z_star"] > 0
        assert records[0]["margin"] > 0


class TestConditionCheckKind:
    def test_rows_match_module(self):
        cfg = ExperimentConfig.from_dict({
            "experiment": "condition-check",
            "seed": 3,
            "params": {"law": {"kind": "pareto", "alpha": 0.5, "xmin": 1.0},
                       "d": 2},
            "sweep": [{"name": "law", "values": [
                {"kind": "pareto", "alpha": 0.5, "xmin": 1.0},
                {"kind": "pareto", "alpha": 1.5, "xmin": 1.0}]}],
        })
        records, _, _ = run_experiment(cfg)
        assert records[0]["coverage_condition"] == 1
        assert records[1]["coverage_condition"] == 0
        assert records[0]["integrable"] == 0


    @pytest.mark.parametrize("extra, atom", [
        # radii up to sqrt(d - 1) k map to 0: Pareto(0.5, 1) has no mass at
        # or below 1, and 1 - 2^-0.5 at or below 2
        ({"q_bar": 2.5, "k": 1.0}, 0.0),
        ({"q_bar": 2.5, "k": 2.0}, 1 - 0.5 ** 0.5),
        ({}, None),
        ({"q_bar": 2.5}, None),
        ({"k": 1.0}, None),
    ])
    def test_tilde_atom_columns(self, extra, atom):
        cfg = ExperimentConfig.from_dict({
            "experiment": "condition-check", "seed": 3,
            "params": {"law": {"kind": "pareto", "alpha": 0.5, "xmin": 1.0},
                       "d": 2, **extra}})
        assert experiment_schema(cfg)[-3:] == ["tilde_atom",
                                               "tilde_atom_strict", "error"]
        records, _, _ = run_experiment(cfg)
        row = records[0]
        if atom is None:
            assert row["tilde_atom"] is None
            assert row["tilde_atom_strict"] is None
        else:
            assert row["tilde_atom"] == pytest.approx(atom)
            assert row["tilde_atom_strict"] == int(atom < 1 / 2.5)


class TestFailureHandling:
    def test_runtime_failure_flags_row(self):
        # the margins satisfy the constraint chain, but a radius-2 ball never
        # fits in the 4-tile, so phi = 0, Psi'(0) = max(alpha) >= 0 and the
        # certificate search fails at run time
        cfg = ExperimentConfig.from_dict({
            "experiment": "entropy-certificate",
            "seed": 5,
            "params": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
                       "law": {"kind": "dirac", "radius": 2.0},
                       "beta": 0.95, "gamma": 0.1, "epsilon": 0.2},
        })
        records, _, _ = run_experiment(cfg)
        assert len(records) == 1
        assert "CertificateError" in records[0]["error"]
        assert records[0]["z_star"] is None


class TestMain:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_exit_zero_and_outputs(self, tmp_path):
        path = self.write_config(tmp_path, base_config(
            out=str(tmp_path / "run")))
        assert main(["--config", path]) == 0
        assert os.path.exists(tmp_path / "run.csv")
        meta = json.loads((tmp_path / "run.meta.json").read_text())
        assert meta["master_seed"] == 11
        assert meta["config"]["experiment"] == "wr-sample"

    def test_exit_two_on_validation(self, tmp_path, capsys):
        path = self.write_config(tmp_path, base_config(bogus=1))
        assert main(["--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "bogus" in capsys.readouterr().err
        # JSON booleans are not integers, though Python counts them as such
        path = self.write_config(tmp_path, base_config(
            seed=True, replicas=True, sweeps=True, threads=True))
        assert main(["--config", path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert all(f"{key}: must be" in err
                   for key in ("seed", "replicas", "sweeps", "threads"))
        # wr-sample is the one kind that samples the hard-core chain
        path = self.write_config(tmp_path,
                                 base_config(experiment="phase-sweep"))
        assert main(["--config", path, "--out", str(tmp_path / "x")]) == 2
        assert "experiment must be one of" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x.csv")
        assert not os.path.exists(tmp_path / "x.meta.json")

    def test_jsonl_and_meta_hold_no_bare_non_finite_token(self, tmp_path):
        # a non-integrable law's moment is infinite; JSON has no Infinity,
        # so the cell is written as its CSV text
        raw = {"experiment": "condition-check", "seed": 1, "format": "jsonl",
               "out": str(tmp_path / "cond"),
               "params": {"law": {"kind": "pareto", "alpha": 1.5,
                                  "xmin": 1.0}, "d": 2}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0

        def refuse(token):
            raise ValueError(f"bare {token} in JSON output")

        lines = (tmp_path / "cond.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=refuse) for line in lines]
        assert [row["moment"] for row in rows] == ["inf"]
        json.loads((tmp_path / "cond.meta.json").read_text(),
                   parse_constant=refuse)

    @pytest.mark.parametrize("key, value, message", [
        ("law", {"kind": "foo"}, "unknown law kind 'foo'"),
        ("boundary", {"kind": "wall"}, "unknown boundary kind 'wall'"),
        # an ordered colour is refused unless integral, never truncated
        ("boundary", {"kind": "ordered", "color": 1.9, "shell": 1.0},
         "color must be an integer, got 1.9"),
        ("boundary", {"kind": "ordered", "color": True, "shell": 1.0},
         "color must be an integer, got True"),
    ])
    def test_exit_two_on_bad_law_or_boundary(self, tmp_path, capsys, key,
                                             value, message):
        raw = base_config(out=str(tmp_path / "bad"))
        raw["params"][key] = value
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")

    @pytest.mark.parametrize("kind, params", [
        ("entropy-certificate", {"m_side": "x"}),
        ("entropy-certificate", {"alpha": [0.5, 0.25, 0.25]}),
        ("entropy-certificate", {"beta": "x"}),
        ("condition-check", {"d": "x"}),
        ("wr-sample", {"probes": "x"}),
        ("crcm-sample", {"probes": "x"}),
        ("domination", {"threshold": "x"}),
        ("wr-sample", {"probes": 0}),
        ("crcm-sample", {"probes": -3}),
        ("entropy-certificate", {"phi_probes": 0}),
        # integer parameters must be JSON integers: floats and booleans
        # are refused, never truncated
        ("wr-sample", {"q": 2.7}),
        ("wr-sample", {"q": 2.0}),
        ("fk-compare", {"q": True}),
        ("domination", {"q": 2.5}),
        ("wr-sample", {"q": 3.0}),
        ("entropy-certificate", {"q": 2.0}),
        ("condition-check", {"q": 2.5}),
        ("slab-renewal", {"d": 2.9}),
        ("entropy-certificate", {"d": True}),
        ("condition-check", {"d": 2.0}),
        ("wr-sample", {"probes": True}),
        ("crcm-sample", {"probes": 100.5}),
        ("entropy-certificate", {"phi_probes": 100.0}),
        # real parameters are refused as booleans, never read as 1 or 0
        ("wr-sample", {"z": True}),
        ("wr-sample", {"z": [0.5, True]}),
        ("crcm-sample", {"z": True}),
        ("crcm-sample", {"q": True}),
        ("slab-renewal", {"n": True}),
        ("slab-renewal", {"k": True}),
        ("slab-renewal", {"z": False}),
        ("wr-sample", {"window": [[0, 0], [3, True]]}),
        ("wr-sample", {"law": {"kind": "dirac", "radius": True}}),
        ("slab-renewal", {"law": {"kind": "pareto", "alpha": 0.7,
                                  "xmin": True}}),
        ("wr-sample", {"law": {"kind": "atom_mixture", "p0": False,
                               "remainder": {"kind": "dirac", "radius": 1}}}),
        ("wr-sample", {"boundary": {"kind": "ordered", "color": 1,
                                    "shell": True}}),
        ("domination", {"threshold": True}),
        ("entropy-certificate", {"m_side": True}),
        ("condition-check", {"q_bar": True, "k": 1.0}),
        ("condition-check", {"q_bar": 2.5, "k": True}),
    ])
    def test_exit_two_on_bad_numeric_param(self, tmp_path, kind, params):
        good = {
            "entropy-certificate": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0,
                                    "d": 2, "phi_probes": 100},
            "condition-check": {"d": 2},
            "slab-renewal": {"n": 10, "k": 0.5, "d": 2, "z": 1.0},
        }.get(kind, base_config()["params"])
        # two replicas, so domination is refused for its params alone
        raw = {"experiment": kind, "seed": 5, "sweeps": 5, "replicas": 2,
               "out": str(tmp_path / "bad"),
               "params": {"law": {"kind": "dirac", "radius": 0.2},
                          **good, **params}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert not os.path.exists(tmp_path / "bad.csv")

    @pytest.mark.parametrize("bad", ["x", True])
    def test_exit_two_on_bad_param_a_sweep_axis_shadows(self, tmp_path,
                                                        capsys, bad):
        # the z axis replaces params' z at every point, so nothing would
        # read the bad value; it is refused all the same
        raw = {"experiment": "slab-renewal", "seed": 5, "replicas": 2,
               "out": str(tmp_path / "bad"),
               "params": {"n": 10, "k": 0.5, "d": 2, "z": bad,
                          "law": {"kind": "dirac", "radius": 0.2}},
               "sweep": [{"name": "z", "values": [4.0, 8.0]}]}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert not os.path.exists(tmp_path / "bad.csv")
        assert not os.path.exists(tmp_path / "bad.meta.json")
        assert "params: " in capsys.readouterr().err
        raw["params"]["z"] = 1.0
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0

    @pytest.mark.parametrize("kind, field, text", [
        ("crcm-sample", '"q": 2', '"q": NaN'),
        ("crcm-sample", '"z": 0.5', '"z": NaN'),
        ("crcm-sample", '"z": 0.5', '"z": Infinity'),
        ("wr-sample", '"z": 0.5', '"z": -Infinity'),
        ("crcm-sample", '"radius": 0.5', '"radius": NaN'),
    ])
    def test_exit_two_on_non_finite_number(self, tmp_path, capsys, kind,
                                           field, text):
        # Python's json reads these names, which JSON itself does not have
        body = json.dumps(base_config(experiment=kind,
                                      out=str(tmp_path / "bad")))
        assert field in body
        path = tmp_path / "cfg.json"
        path.write_text(body.replace(field, text))
        assert main(["--config", str(path)]) == 2
        assert "is not a number" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")

    @pytest.mark.parametrize("replicas, argv", [
        (None, []),
        (6, ["--replicas", "1"]),
    ])
    def test_exit_two_on_single_replica_domination(self, tmp_path, capsys,
                                                   replicas, argv):
        # one replica leaves the z-score's variance without a degree of
        # freedom: refused before any sampling, not a NaN or Infinity summary
        raw = {"experiment": "domination", "seed": 5, "sweeps": 5,
               "out": str(tmp_path / "bad"),
               "params": {"q": 2, "z": 0.5,
                          "law": {"kind": "dirac", "radius": 0.2},
                          "window": [[0, 0], [3, 3]]}}
        if replicas is not None:
            raw["replicas"] = replicas
        assert main(["--config", self.write_config(tmp_path, raw), *argv]) == 2
        err = capsys.readouterr().err
        assert "replicas: domination" in err
        assert "RuntimeWarning" not in err
        assert not os.path.exists(tmp_path / "bad.csv")
        assert not os.path.exists(tmp_path / "bad.meta.json")

    @pytest.mark.parametrize("margins", [
        {"beta": 0.5},
        {"gamma": 0.1},
        {"beta": 0.95, "epsilon": 0.2},
    ])
    def test_exit_two_on_partial_entropy_margins(self, tmp_path, capsys,
                                                 margins):
        raw = {"experiment": "entropy-certificate", "seed": 5,
               "out": str(tmp_path / "bad"),
               "params": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
                          "law": {"kind": "dirac", "radius": 0.2},
                          "phi_probes": 100, **margins}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert "beta, gamma and epsilon" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")

    def test_exit_two_on_chain_violating_margins(self, tmp_path, capsys):
        # all three margins given, but gamma = 0.3 is not below
        # 1 - epsilon - max(alpha) = 0.05
        raw = {"experiment": "entropy-certificate", "seed": 5,
               "out": str(tmp_path / "bad"),
               "params": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
                          "law": {"kind": "dirac", "radius": 0.5},
                          "beta": 0.95, "gamma": 0.3, "epsilon": 0.45}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert "constraint chain" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")

    @pytest.mark.parametrize("params, sweep, message", [
        ({"n": 1e200, "k": 1e200, "d": 2}, [], "finite"),
        # only one sweep point overflows; none is sampled
        ({"n": 1e10, "k": 0.5, "d": 2},
         [{"name": "k", "values": [0.5, 1e300]}], "finite"),
        # a repeated axis would overwrite the first one's values at every
        # point and reseed the replicas on each of them
        ({"n": 10, "k": 0.5, "d": 2},
         [{"name": "z", "values": [1.0, 2.0]},
          {"name": "z", "values": [3.0, 4.0]}],
         "sweep[1].name: 'z' repeats an axis"),
        # a name that is not a string is not a parameter, nor a crash
        ({"n": 10, "k": 0.5, "d": 2}, [{"name": ["z"], "values": [1.0]}],
         "sweep[0].name: ['z'] is not a sweepable parameter"),
    ])
    def test_exit_two_on_bad_slab_sweep(self, tmp_path, capsys, params,
                                        sweep, message):
        # finite n and k whose slab volume overflows, or a malformed sweep:
        # a config error before any sampling, not rows and exit 3
        raw = {"experiment": "slab-renewal", "seed": 5, "replicas": 3,
               "out": str(tmp_path / "bad"), "sweep": sweep,
               "params": {"z": 4.0, **params,
                          "law": {"kind": "pareto", "alpha": 0.7,
                                  "xmin": 0.3}}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")
        assert not os.path.exists(tmp_path / "bad.meta.json")

    def test_slab_renewal_all_empty_point(self, tmp_path):
        # at z = 1e-9 every replica draws an empty slab: that point's summary
        # holds only its sweep cell, and the run still succeeds
        raw = {"experiment": "slab-renewal", "seed": 5, "replicas": 40,
               "out": str(tmp_path / "slab"),
               "params": {"n": 20, "k": 0.5, "d": 2, "z": 4.0,
                          "law": {"kind": "pareto", "alpha": 0.7, "xmin": 0.3}},
               "sweep": [{"name": "z", "values": [1e-9, 4.0, 8.0]}]}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        _, rows = load_records(str(tmp_path / "slab.csv"))
        points = json.loads(
            (tmp_path / "slab.meta.json").read_text())["summary"]["points"]
        assert points[0] == {"z": 1e-9}
        assert all(r["n_cc_right"] == 0 for r in rows if r["z"] == 1e-9)
        for point in points[1:]:
            est = p_from_ncc([r["n_cc_right"] for r in rows
                              if r["z"] == point["z"]])
            assert point == {"z": point["z"], "p_hat": est.p_hat,
                             "p_stderr": est.stderr,
                             "inverse_mean_ncc": est.inverse_mean,
                             "n_nonempty": est.n_nonempty}

    def test_exit_two_without_out(self, tmp_path):
        path = self.write_config(tmp_path, base_config())
        assert main(["--config", path]) == 2

    def test_exit_three_on_row_failure(self, tmp_path):
        # a radius-2 ball never fits in the 4-tile: phi = 0 and the
        # certificate search fails at run time
        path = self.write_config(tmp_path, {
            "experiment": "entropy-certificate",
            "seed": 5,
            "out": str(tmp_path / "fail"),
            "params": {"q": 2, "alpha": [0.5, 0.5], "m_side": 4.0, "d": 2,
                       "law": {"kind": "dirac", "radius": 2.0}},
        })
        assert main(["--config", path]) == 3

    @pytest.mark.parametrize("alpha, message", [
        ([1.0, 0.0], "max(alpha) must be < 1"),
        ([0.7, 0.7], "alpha must be a probability vector"),
    ])
    def test_exit_two_on_alpha_without_default_margins(self, tmp_path, capsys,
                                                       alpha, message):
        # default margins need max(alpha) < 1 and a probability vector;
        # both are checked before any phi sampling
        path = self.write_config(tmp_path, {
            "experiment": "entropy-certificate",
            "seed": 5,
            "out": str(tmp_path / "bad"),
            "params": {"q": 2, "alpha": alpha, "m_side": 4.0, "d": 2,
                       "law": {"kind": "dirac", "radius": 1.0}},
        })
        assert main(["--config", path]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "bad.csv")

    def test_exit_four_on_unwritable_output(self, tmp_path):
        path = self.write_config(tmp_path, base_config(
            out=str(tmp_path / "no_such_dir" / "run")))
        assert main(["--config", path]) == 4

    def test_seed_override_changes_output(self, tmp_path):
        path = self.write_config(tmp_path, base_config(out=str(tmp_path / "a")))
        assert main(["--config", path]) == 0
        assert main(["--config", path, "--seed", "99",
                     "--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a.csv").read_bytes()
                != (tmp_path / "b.csv").read_bytes())

    def test_byte_identical_reruns(self, tmp_path):
        path = self.write_config(tmp_path, base_config(out=str(tmp_path / "r1")))
        assert main(["--config", path]) == 0
        assert main(["--config", path, "--out", str(tmp_path / "r2")]) == 0
        assert ((tmp_path / "r1.csv").read_bytes()
                == (tmp_path / "r2.csv").read_bytes())

    def test_dump_samples(self, tmp_path):
        raw = base_config(out=str(tmp_path / "dump"), dump_samples=True,
                          replicas=1)
        path = self.write_config(tmp_path, raw)
        assert main(["--config", path]) == 0
        assert os.path.exists(tmp_path / "dump.p000r000.balls.txt")
        run_meta = (tmp_path / "dump.p000r000.run.txt").read_text()
        assert "seed=" in run_meta and "sweeps=30" in run_meta

    def test_crcm_sample_dumps_final_state(self, tmp_path):
        raw = {"experiment": "crcm-sample", "seed": 3, "replicas": 2,
               "sweeps": 20, "out": str(tmp_path / "crcm"),
               "dump_samples": True,
               "params": {"q": 2, "z": 1.0,
                          "law": {"kind": "pareto", "alpha": 0.5,
                                  "xmin": 0.1},
                          "window": [[0, 0], [3, 3]]}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        _, records = load_records(str(tmp_path / "crcm.csv"))
        assert len(records) == 2
        for ri, row in enumerate(records):
            base = tmp_path / f"crcm.p000r{ri:03d}"
            # every ball is written with colour 1
            mc = load_multitype_configuration(str(base) + ".balls.txt", 1, 2)
            assert len(mc.configs[0]) == row["count"] > 0
            run_meta = (base.parent / (base.name + ".run.txt")).read_text()
            assert "experiment=crcm-sample" in run_meta
            assert "sweeps=20" in run_meta and "ess_count=" in run_meta

    def test_crcm_sample_dump_matches_golden_bytes(self, tmp_path):
        # a q = 2 cluster chain on uniform radii whose ball count passes 128
        # and whose deaths split components: the committed dump fixes every
        # centre and radius it ends with, so a change to the chain's state
        # handling that alters one draw or one piece count shows here.  q = 2
        # and uniform radii keep pow and FFT rounding out of the file.
        raw = {"experiment": "crcm-sample", "seed": 7, "sweeps": 10,
               "out": str(tmp_path / "golden"), "dump_samples": True,
               "params": {"q": 2, "z": 1.0,
                          "law": {"kind": "uniform", "low": 0.2, "high": 0.6},
                          "window": [[0, 0], [12, 12]]}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        got = (tmp_path / "golden.p000r000.balls.txt").read_bytes()
        assert got == (GOLDEN / "crcm_uniform_q2.balls.txt").read_bytes()

    def test_wr_sample_dump_matches_golden_bytes(self, tmp_path):
        # a q = 3 WR chain on Pareto(1.2, 0.2) radii inside an ordered shell
        # of colour 2: births of colours 1 and 3 are blocked by balls of the
        # other colours in the window and in the shell, so the committed dump
        # fixes every closed-ball decision the chain made along the way
        raw = {"experiment": "wr-sample", "seed": 7, "sweeps": 10,
               "out": str(tmp_path / "golden"), "dump_samples": True,
               "params": {"q": 3, "z": 0.5,
                          "law": {"kind": "pareto", "alpha": 1.2, "xmin": 0.2},
                          "window": [[0, 0], [8, 8]],
                          "boundary": {"kind": "ordered", "color": 2,
                                       "shell": 1.5}}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        got = (tmp_path / "golden.p000r000.balls.txt").read_bytes()
        assert got == (GOLDEN / "wr_pareto_q3_ordered.balls.txt").read_bytes()

    def test_wr_sample_large_window_dump_matches_golden_bytes(self, tmp_path):
        # a q = 2 WR chain on [0,30]^2 with Pareto(1.2, 0.2) radii: 1800
        # proposals per sweep against about 400 balls per colour, so every
        # block's births are checked against conflict lists rather than by
        # the direct scan, and the committed dump fixes each such decision
        raw = {"experiment": "wr-sample", "seed": 7, "sweeps": 3,
               "out": str(tmp_path / "golden"), "dump_samples": True,
               "params": {"q": 2, "z": 1.0,
                          "law": {"kind": "pareto", "alpha": 1.2, "xmin": 0.2},
                          "window": [[0, 0], [30, 30]]}}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        got = (tmp_path / "golden.p000r000.balls.txt").read_bytes()
        assert got == (GOLDEN / "wr_pareto_q2_large.balls.txt").read_bytes()

    # three slab-renewal runs whose CSV and meta summary are committed:
    # d = 2 Pareto(0.7, 0.3) radii with a z = 1e-9 point where every replica
    # draws an empty slab, d = 3 exponential radii whose shadows are often
    # empty (r below sqrt(2) k), and d = 1 Dirac radii, where the shadow is
    # the radius itself.  Each fixes the window volume behind every Poisson
    # count, the shadow component counts and both right-edge flags.
    SLAB_GOLDEN = {
        "slab_d2_pareto": ({"n": 8, "k": 0.3, "d": 2, "z": 3.0,
                            "law": {"kind": "pareto", "alpha": 0.7,
                                    "xmin": 0.3}},
                           [{"name": "z", "values": [1e-9, 3.0, 6.0]}]),
        "slab_d3_exponential": ({"n": 6, "k": 0.2, "d": 3, "z": 20.0,
                                 "law": {"kind": "exponential", "rate": 2.0}},
                                []),
        "slab_d1_dirac": ({"n": 8, "k": 1.0, "d": 1, "z": 0.6,
                           "law": {"kind": "dirac", "radius": 0.4}},
                          [{"name": "n", "values": [4.0, 8.0]}]),
    }

    @pytest.mark.parametrize("name", sorted(SLAB_GOLDEN))
    def test_slab_renewal_matches_golden_bytes(self, tmp_path, name):
        params, sweep = self.SLAB_GOLDEN[name]
        raw = {"experiment": "slab-renewal", "seed": 3, "replicas": 12,
               "out": str(tmp_path / name), "params": params, "sweep": sweep}
        assert main(["--config", self.write_config(tmp_path, raw)]) == 0
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (GOLDEN / f"{name}.csv").read_bytes()
        summary = json.loads(
            (tmp_path / f"{name}.meta.json").read_text())["summary"]
        assert (json.dumps(summary, indent=2, sort_keys=True) + "\n"
                == (GOLDEN / f"{name}.summary.json").read_text())


def test_fk_compare_matches_golden_bytes(tmp_path):
    # c02's case (q = 2, z = 0.5, Dirac(0.5) on [0,3]^2) through fk-compare:
    # each replica runs the cluster chain, colours its components, runs the
    # hard-core chain and labels both states, so the committed CSV and
    # summary fix every draw and decision of all four, in that order
    raw = {"experiment": "fk-compare", "seed": 5, "replicas": 8, "sweeps": 40,
           "out": str(tmp_path / "fk"),
           "params": {"q": 2, "z": 0.5,
                      "law": {"kind": "dirac", "radius": 0.5},
                      "window": [[0, 0], [3, 3]]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path)]) == 0
    got = (tmp_path / "fk.csv").read_bytes()
    assert got == (GOLDEN / "fk_compare_q2.csv").read_bytes()
    summary = json.loads((tmp_path / "fk.meta.json").read_text())["summary"]
    assert (json.dumps(summary, indent=2, sort_keys=True) + "\n"
            == (GOLDEN / "fk_compare_q2.summary.json").read_text())
