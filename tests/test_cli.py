import argparse
import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

import raidlab
from raidlab import cli
from raidlab.cli import main
from raidlab.config import (Report, SCENARIO_SCHEMA, load_preset,
                            validate_scenario, SchemaError)


# schema-valid sections that the commands run
PLACEMENT = {"n": 20, "c": 1e12, "r": 3, "b": 1e11, "lam": 1e-4}
GENERIC = {"kind": "generic", "components": 10, "tolerance": 1,
           "delta": 0.001, "mu": 1.0}
MG1 = {"kind": "queue", "model": "mg1",
       "params": {"arrival_rate": 0.05, "service": ["exp", 10.0]}}
COPYSET = {"nodes": 9, "replication": 3, "scatter_width": 4,
           "scheme": "copyset", "fail_fraction": 0.4}


def run_cli(args, tmp_path, env_seed=None):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    old = os.environ.pop("RAIDLAB_SEED", None)
    if env_seed is not None:
        os.environ["RAIDLAB_SEED"] = str(env_seed)
    try:
        code = main(args)
    finally:
        os.chdir(cwd)
        os.environ.pop("RAIDLAB_SEED", None)
        if old is not None:
            os.environ["RAIDLAB_SEED"] = old
    return code


class TestConfigRoundTrip:
    def test_presets_validate(self):
        for name in ("cheetah", "sata-idr", "resch-row2", "copyset-9-3-4",
                     "bibd-10-4", "was-lrc", "pyramid", "hraid-4x4"):
            doc = load_preset(name)
            assert doc["version"] == "1"

    def test_round_trip_idempotent(self):
        doc = load_preset("cheetah")
        again = validate_scenario(json.loads(json.dumps(doc)))
        assert again == doc

    def test_schema_rejects_unknown_keys(self):
        with pytest.raises(SchemaError) as err:
            validate_scenario({"version": "1", "bogus": {}})
        assert str(err.value) == \
            "Additional properties are not allowed ('bogus' was unexpected) (at )"

    def test_schema_rejects_bad_types(self):
        with pytest.raises(SchemaError) as err:
            validate_scenario({"version": "1",
                               "workload": {"arrival_rate": "fast"}})
        assert str(err.value) == \
            "'fast' is not of type 'number' (at workload/arrival_rate)"

    def test_schema_reports_best_match_of_several_errors(self):
        with pytest.raises(SchemaError) as err:
            validate_scenario({"workload": {"arrival_rate": "fast",
                                            "read_fraction": 2}})
        assert str(err.value) == \
            "2 is greater than the maximum of 1 (at workload/read_fraction)"

    def test_schema_is_valid_draft_2020_12(self):
        # validate_scenario trusts the schema; this is where it is checked
        Draft202012Validator.check_schema(SCENARIO_SCHEMA)


# Runs a CLI command in a fresh interpreter and prints which heavy modules
# were loaded after `import raidlab.cli` and after the command.
HEAVY_PROBE = """
import json, sys
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "jsonschema")
def loaded():
    return [m for m in HEAVY if m in sys.modules]
from raidlab.cli import main
after_import = loaded()
code = main(sys.argv[1:])
print(json.dumps([code, after_import, loaded()]))
"""


# Runs a CLI command in a fresh interpreter and prints its exit code and
# every module loaded after it.
LOADED_PROBE = """
import json, sys
from raidlab.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh(argv, tmp_path, check=True):
    """Run `python ARGV` on this checkout's raidlab in tmp_path, without
    RAIDLAB_SEED; the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(raidlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("RAIDLAB_SEED", None)
    return subprocess.run([sys.executable] + argv, cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=check)


def probe(source, args, tmp_path):
    """The JSON that `source` prints last, run with `args` in a fresh
    interpreter."""
    out = fresh(["-c", source] + args, tmp_path).stdout
    return json.loads(out.splitlines()[-1])


def heavy_modules(args, tmp_path):
    return probe(HEAVY_PROBE, args, tmp_path)


class TestImportHygiene:
    def test_compare_shortcut_loads_no_heavy_module(self, tmp_path):
        code, after_import, after_run = heavy_modules(
            ["compare", "shortcut", "--N", "8", "--eps", "0.025",
             "--out", "cmp"], tmp_path)
        assert code == 0
        assert after_import == []
        assert after_run == []

    def test_sim_reliability_skips_scipy_stats(self, tmp_path):
        code, after_import, after_run = heavy_modules(
            ["sim", "reliability", "--preset", "resch-row2", "--reps", "200",
             "--seed", "1", "--out", "r2"], tmp_path)
        assert code == 0
        assert after_import == []
        assert "scipy.stats" not in after_run

    @pytest.mark.parametrize("args", [
        ["analyze", "queueing", "--preset", "cheetah"],
        ["code", "check", "--preset", "was-lrc"],
        ["sim", "reliability", "--preset", "resch-row2", "--reps", "200",
         "--seed", "1"],
    ], ids=["analyze", "code", "sim"])
    def test_preset_commands_skip_jsonschema(self, tmp_path, args):
        # a preset is checked against the schema without jsonschema
        code, _, after_run = heavy_modules(args + ["--out", "r"], tmp_path)
        assert code == 0
        assert "jsonschema" not in after_run

    def test_import_raidlab_loads_no_layer(self, tmp_path):
        loaded = probe("import json, sys, raidlab\n"
                       "print(json.dumps(sorted(sys.modules)))", [], tmp_path)
        assert [m for m in loaded if m.startswith("raidlab.")] == []
        assert "numpy" not in loaded

    @pytest.mark.parametrize("args,absent", [
        (["compare", "shortcut", "--N", "8", "--eps", "0.025"],
         ["numpy", "raidlab.ctmc"]),
        (["analyze", "mttdl", "--config", "chen.json"], ["numpy"]),
        (["layout", "verify", "--kind", "bibd-10-4"],
         ["raidlab.codes", "raidlab.gf", "raidlab.sim", "raidlab.ctmc",
          "numpy"]),
        (["code", "check", "--builder", "rdp", "--param", "p=5"],
         ["raidlab.sim", "raidlab.ctmc", "raidlab.reliability"]),
    ], ids=["compare-shortcut", "analyze-mttdl-chen", "layout-verify-bibd",
            "code-check-rdp"])
    def test_command_loads_only_its_layers(self, tmp_path, args, absent):
        (tmp_path / "chen.json").write_text(json.dumps({
            "version": "1", "reliability": {"model": "chen", "disks": 8,
                                            "data": 7, "mttf_hours": 1e5,
                                            "mttr_hours": 1.0}}))
        code, loaded = probe(LOADED_PROBE, args + ["--out", "r"], tmp_path)
        assert code == 0
        assert [m for m in absent if m in loaded] == []


class TestCommands:
    def test_code_check_rdp_pairs(self, tmp_path, capsys):
        code = run_cli(["code", "check", "--builder", "rdp", "--param", "p=5",
                        "--erasures", "all-pairs", "--out", "rdp"], tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "15/15 recoverable" in out
        doc = json.loads((tmp_path / "rdp.json").read_text())
        metrics = {r["metric"]: r["value"] for r in doc["rows"]}
        assert metrics["recoverable"] == 15
        assert metrics["fraction"] == 1.0

    def test_compare_shortcut(self, tmp_path, capsys):
        code = run_cli(["compare", "shortcut", "--N", "8", "--eps", "0.025",
                        "--out", "cmp"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "cmp.json").read_text())
        assert any("sspiral" in r["metric"] for r in doc["rows"])

    @pytest.mark.parametrize("args,detail", [
        (["--N", "-3"], "n must be a non-negative integer"),
        (["--N", "1"], "id has a negative leading coefficient -0.25 at N = 1"),
        (["--N", "0"], "raid5 has a zero leading coefficient at N = 0"),
        (["--orgs", "raid5", "--N", "1"],
         "raid5 has a zero leading coefficient at N = 1"),
    ], ids=["N-3", "N1", "N0", "raid5-N1"])
    def test_compare_shortcut_negative_terms_exit_3(self, tmp_path, capsys,
                                                     args, detail):
        # such N used to be ranked, negative or zero unreliabilities and all
        assert run_cli(["compare", "shortcut", "--eps", "0.025"] + args,
                       tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "domain", "detail": detail}

    def test_sim_reliability_preset(self, tmp_path):
        code = run_cli(["sim", "reliability", "--preset", "resch-row2",
                        "--reps", "4000", "--seed", "42", "--out", "r2"],
                       tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "r2.json").read_text())
        row = next(r for r in doc["rows"] if r["metric"] == "mttdl")
        assert row["ci_low"] < 4.488e4 < row["ci_high"]
        assert row["provenance"] == "montecarlo"

    def test_stochastic_rows_carry_ci(self, tmp_path):
        run_cli(["sim", "reliability", "--preset", "hraid-4x4",
                 "--reps", "500", "--out", "h"], tmp_path)
        doc = json.loads((tmp_path / "h.json").read_text())
        row = next(r for r in doc["rows"] if r["metric"] == "mttdl")
        assert row["ci_low"] is not None and row["ci_high"] is not None

    def test_analyze_queueing_formats(self, tmp_path):
        code = run_cli(["analyze", "queueing", "--preset", "cheetah",
                        "--out", "q", "--format", "json,csv,tsv"], tmp_path)
        assert code == 0
        csv_text = (tmp_path / "q.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header == "metric,value,unit,ci_low,ci_high,provenance"
        tsv_text = (tmp_path / "q.tsv").read_text()
        assert tsv_text.splitlines()[0].split("\t") == header.split(",")
        # identical content across formats
        doc = json.loads((tmp_path / "q.json").read_text())
        assert len(doc["rows"]) == len(csv_text.splitlines()) - 1

    def test_layout_verify_writes_the_layout(self, tmp_path):
        assert run_cli(["layout", "verify", "--kind", "bibd-10-4",
                        "--out-layout", "v.json"], tmp_path) == 0
        layout = json.loads((tmp_path / "v.json").read_text())
        assert len(layout["assignment"][0]) == 10

    def test_layout_gen_nrp(self, tmp_path):
        code = run_cli(["layout", "gen", "--kind", "nrp", "--disks", "10",
                        "--group", "4", "--seed", "3", "--out", "nrp",
                        "--out-layout", "layout.json"], tmp_path)
        assert code == 0
        doc = json.loads((tmp_path / "nrp.json").read_text())
        metrics = {r["metric"]: r["value"] for r in doc["rows"]}
        assert metrics["distinct_disk_violations"] == 0
        layout = json.loads((tmp_path / "layout.json").read_text())
        assert len(layout["assignment"][0]) == 10


class TestReplayAndExitCodes:
    def test_same_seed_byte_identical_modulo_elapsed(self, tmp_path):
        for name in ("a", "b"):
            run_cli(["sim", "reliability", "--preset", "hraid-4x4",
                     "--reps", "300", "--seed", "7", "--out", name], tmp_path)
        da = json.loads((tmp_path / "a.json").read_text())
        db = json.loads((tmp_path / "b.json").read_text())
        da.pop("elapsed_s")
        db.pop("elapsed_s")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_env_seed_fallback(self, tmp_path):
        run_cli(["sim", "reliability", "--preset", "hraid-4x4",
                 "--reps", "300", "--out", "env1"], tmp_path, env_seed=123)
        doc = json.loads((tmp_path / "env1.json").read_text())
        assert doc["seed"] == 123

    def test_schema_violation_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": "1", "nonsense": 1}))
        code = run_cli(["analyze", "queueing", "--config", str(bad)], tmp_path)
        assert code == 2

    def test_reliability_group_exit_2(self, tmp_path):
        # the key reached a field that no computation read
        cfg = tmp_path / "group.json"
        doc = load_preset("sata-idr")
        doc["reliability"]["group"] = 4
        cfg.write_text(json.dumps(doc))
        assert run_cli(["analyze", "lse", "--config", str(cfg)],
                       tmp_path) == 2

    def test_output_section_exit_2(self, tmp_path):
        # --format and --out choose the report files; a scenario cannot
        cfg = tmp_path / "out.json"
        cfg.write_text(json.dumps({
            "version": "1", "workload": {"arrival_rate": 50.0},
            "output": {"format": ["csv"], "path": "mine"}}))
        code = run_cli(["analyze", "queueing", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert list(tmp_path.iterdir()) == [cfg]

    def test_domain_error_exit_3(self, tmp_path):
        cfg = tmp_path / "sat.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "workload": {"arrival_rate": 100000.0},
        }))
        code = run_cli(["analyze", "queueing", "--config", str(cfg)], tmp_path)
        assert code == 3

    def test_budget_exceeded_exit_4(self, tmp_path):
        code = run_cli(["code", "check", "--builder", "xcode",
                        "--param", "n=13", "--erasures", "all-quads",
                        "--granularity", "symbol"], tmp_path)
        assert code == 4

    @pytest.mark.parametrize("doc,args,want,error", [
        ({"version": "1", "nonsense": 1}, ["analyze", "queueing"], 2,
         "schema"),
        ({"version": "1", "workload": {"arrival_rate": 100000.0}},
         ["analyze", "queueing"], 3, "domain"),
        ({"version": "1"}, ["code", "check", "--builder", "xcode", "--param",
                            "n=13", "--erasures", "all-quads",
                            "--granularity", "symbol"], 4, "budget"),
    ], ids=["schema-2", "saturated-3", "budget-4"])
    def test_exit_codes_of_a_fresh_module_run(self, tmp_path, doc, args,
                                              want, error):
        # in-process, every layer is already loaded; a fresh `python -m
        # raidlab.cli` maps the errors of the layers the command loaded
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        proc = fresh(["-m", "raidlab.cli"] + args + ["--config", "cfg.json"],
                     tmp_path, check=False)
        assert proc.returncode == want, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1])["error"] == error
        assert not (tmp_path / "report.json").exists()

    def test_unknown_erasure_unit_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "unknown.json"
        cfg.write_text(json.dumps({"code": {
            "builder": "raid5", "params": {"n": 4}, "erasures": [7, 9],
            "granularity": "column"}}))
        assert run_cli(["code", "check", "--config", str(cfg)], tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "domain"
        assert "has no column 7" in err["detail"]

    def test_erasures_beyond_the_units_exit_3(self, tmp_path, capsys):
        # four erasures of a three-column code: a domain error, not a
        # division of no patterns by no patterns
        assert run_cli(["code", "check", "--builder", "raid5", "--param",
                        "n=3", "--erasures", "all-quads"], tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "domain", "detail": "f=4 is outside 1..3, "
                       "the column count of code raid5(3)"}

    def test_unknown_preset_exit_3(self, tmp_path):
        code = run_cli(["analyze", "queueing", "--preset", "nope"], tmp_path)
        assert code == 3

    @pytest.mark.parametrize("command,doc,key", [
        ("sim reliability", {"sim": {"kind": "hraid", "regime": "angus",
                                     "replications": 10}}, "regime"),
        ("sim reliability", {"sim": {"kind": "generic", "delta": 0.001,
                                     "tolerance": 1}}, "components"),
        ("analyze mttdl", {"reliability": {"model": "chen", "disks": 8,
                                           "mttf_hours": 1000}}, "data"),
        ("analyze ctmc", {}, "ctmc"),
        ("layout gen", {"layout": {"kind": "nrp", "disks": 10}}, "group"),
        ("layout verify", {"layout": {"kind": "shifted", "group": 4}},
         "disks"),
        ("sim queue", {"sim": {"model": "mg1",
                               "params": {"arrival_rate": 0.05}}}, "service"),
        ("analyze queueing", {"profile": {"cylinders": 1000,
                                          "seek_char": [0.5, 0.1]},
                              "workload": {"arrival_rate": 50.0}},
         "rotation_time_ms"),
        ("analyze placement", {"reliability": {"placement": dict(
            PLACEMENT, k=19)}}, "argument 'k'"),
        ("sim reliability", {"sim": dict(GENERIC, nodes=4, gamma=1e-4)},
         "a generic sim does not read sim.gamma, sim.nodes"),
        ("sim reliability", {"sim": {"kind": "resch-table",
                                     "components": 10}},
         "a resch-table sim does not read sim.components"),
        ("sim queue", {"sim": dict(MG1, tolerance=1)},
         "a queue sim does not read sim.tolerance"),
        ("sim reliability", {"copyset": COPYSET, "sim": {"delta": 1e-3}},
         "a copyset sim does not read sim.delta"),
        ("sim reliability", {"sim": {"kind": "copyset"}},
         "without a copyset section runs sim.kind 'hraid' or 'generic' or "
         "'resch-table', not 'copyset'"),
        ("sim reliability", {"copyset": COPYSET, "sim": {"kind": "hraid"}},
         "with a copyset section runs sim.kind 'copyset', not 'hraid'"),
        ("sim queue", {"sim": dict(MG1, kind="generic")},
         "sim queue runs sim.kind 'queue', not 'generic'"),
        ("sim reliability", {"sim": dict(MG1)}, "not 'queue'"),
        ("analyze rebuild", {"profile": {"preset": "cheetah"},
                             "workload": {"arrival_rate": 60.0},
                             "reliability": {"disks": 2}},
         "need at least 3 disks, got 2"),
        ("sim reliability --jobs 2", {"sim": GENERIC},
         "--jobs 2: a generic sim does not split its replications"),
        ("sim reliability --jobs 2", {"sim": {"kind": "resch-table"}},
         "--jobs 2: a resch-table sim does not split its replications"),
        ("sim reliability --jobs 3", {"copyset": COPYSET},
         "--jobs 3: a copyset sim does not split its replications"),
        ("sim queue --jobs 2", {"sim": MG1},
         "--jobs 2: a queue sim does not split its replications"),
        # a flag sets its key in the section the scenario gives
        ("layout gen --disks 12", {"layout": {"kind": "bibd-10-4"}},
         "a bibd-10-4 layout does not read layout.disks"),
        ("code check --erasures all-quads",
         {"code": {"builder": "raid5", "params": {"n": 3}}},
         "f=4 is outside 1..3, the column count of code raid5(3)"),
        # keys a command needs and that the command line used to supply
        ("sim reliability", {"sim": {"kind": "generic", "components": 10,
                                     "tolerance": 1, "delta": 0.001}},
         "sim needs 'mu'"),
        ("analyze rebuild", {"profile": {"preset": "cheetah"},
                             "workload": {"arrival_rate": 60.0}},
         "reliability needs 'disks'"),
        ("analyze mttdl", {"reliability": {"model": "chen", "disks": 8,
                                           "data": 7, "mttf_hours": 1e5}},
         "reliability needs 'mttr_hours'"),
        ("analyze mttdl", {"reliability": {"model": "angus", "disks": 8,
                                           "data": 7, "mttf_hours": 1e5,
                                           "mttr_hours": 0}},
         "mttr must be > 0, got 0"),
        ("analyze mttdl", {"reliability": {"model": "chen", "disks": 8,
                                           "data": 7, "mttf_hours": 1e5,
                                           "mttr_hours": 0}},
         "mttr must be > 0, got 0"),
        ("sim queue", {"sim": {"kind": "queue", "model": "mg1"}},
         "sim needs 'params'"),
        # keys and flags that the chosen kind or command does not read
        ("layout gen", {"layout": {"kind": "shifted", "disks": 8,
                                   "group": 4, "rows": 3}},
         "a shifted layout does not read layout.rows"),
        ("layout verify --kind bibd-10-4 --group 4",
         {"layout": {"kind": "nrp", "disks": 10, "rows": 2}},
         "a bibd-10-4 layout does not read layout.disks, layout.group, "
         "layout.rows"),
        ("code check", {"code": {"builder": "raid5", "inline": {}}},
         "an inline code does not read code.builder"),
        ("code check --builder raid5 --param n=4",
         {"code": {"inline": {}}},
         "an inline code does not read code.builder"),
        ("sim reliability", {"sim": {"kind": "hraid", "mu": 0.0}},
         "a hraid sim does not read sim.mu"),
        ("code metrics --granularity symbol",
         {"code": {"builder": "raid5", "params": {"n": 4}}},
         "code metrics does not read --granularity"),
        ("code metrics --erasures all-pairs",
         {"code": {"builder": "raid5", "params": {"n": 4}}},
         "code metrics does not read --erasures"),
        ("code tolerance --erasures all-pairs",
         {"code": {"builder": "raid5", "params": {"n": 4}}},
         "code tolerance does not read --erasures"),
    ], ids=["hraid-extra-key", "generic-missing-key", "chen-missing-key",
            "ctmc-missing-section", "nrp-missing-group",
            "shifted-missing-disks", "mg1-missing-param",
            "profile-missing-key", "placement-k", "generic-hraid-keys",
            "resch-table-extra-key", "queue-extra-key", "copyset-extra-key",
            "copyset-kind-without-section", "hraid-kind-with-copyset",
            "generic-kind-in-sim-queue", "queue-kind-in-sim-reliability",
            "rebuild-two-disks", "jobs-generic", "jobs-resch-table",
            "jobs-copyset", "jobs-queue", "disks-without-kind",
            "erasures-without-builder", "generic-missing-mu",
            "rebuild-missing-disks", "chen-missing-mttr", "angus-zero-mttr",
            "chen-zero-mttr", "queue-missing-params", "shifted-rows",
            "bibd-flags-over-nrp", "builder-and-inline",
            "builder-flag-over-inline", "hraid-mu", "metrics-granularity",
            "metrics-erasures", "tolerance-erasures"])
    def test_schema_valid_key_mismatch_exit_3(self, tmp_path, capsys,
                                              command, doc, key):
        validate_scenario(doc)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = run_cli(command.split() + ["--config", str(cfg)], tmp_path)
        assert code == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "domain"
        assert key in err["detail"]

    @pytest.mark.parametrize("args,detail", [
        (["layout", "gen", "--kind", "nrp", "--disks", "1", "--group", "4"],
         "1 is less than the minimum of 2 (at layout/disks)"),
        (["layout", "gen", "--disks", "10", "--group", "4"],
         "'kind' is a required property (at layout)"),
        (["sim", "reliability", "--preset", "resch-row2", "--reps", "0"],
         "0 is less than the minimum of 1 (at sim/replications)"),
    ], ids=["disks-1", "disks-without-a-layout", "reps-0"])
    def test_flag_outside_the_schema_exit_2(self, tmp_path, capsys, args,
                                            detail):
        # a flag sets a scenario key, and the scenario is checked again
        assert run_cli(args, tmp_path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "schema", "detail": detail}
        assert list(tmp_path.iterdir()) == []


# The README commands and the benchmark's presets, compare aside, and two
# whose flags the report's scenario used to leave out
REPLAYED = [
    ["analyze", "queueing", "--preset", "cheetah"],
    ["analyze", "lse", "--preset", "sata-idr"],
    ["code", "check", "--builder", "rdp", "--param", "p=5", "--erasures",
     "all-pairs"],
    ["code", "metrics", "--builder", "azure_lrc", "--param", "n=10",
     "--param", "k=6", "--param", "r=3"],
    ["layout", "verify", "--kind", "bibd-10-4"],
    ["layout", "gen", "--kind", "nrp", "--disks", "10", "--group", "4",
     "--seed", "3"],
    ["sim", "reliability", "--preset", "resch-row2", "--reps", "10000",
     "--seed", "42"],
    ["sim", "reliability", "--preset", "hraid-4x4", "--jobs", "2"],
    ["code", "check", "--preset", "was-lrc"],
    ["code", "check", "--preset", "pyramid"],
    ["sim", "reliability", "--preset", "resch-table", "--seed", "1"],
    ["code", "check", "--builder", "rdp", "--param", "p=5", "--granularity",
     "symbol"],
    ["sim", "reliability", "--preset", "resch-row2", "--reps", "200",
     "--seed", "5"],
]


class TestReplay:
    @pytest.mark.parametrize("args", REPLAYED, ids=[
        "analyze-queueing", "analyze-lse", "code-check-rdp",
        "code-metrics-azure", "layout-verify-bibd", "layout-gen-nrp",
        "sim-resch-row2", "sim-hraid-jobs2", "code-check-was-lrc",
        "code-check-pyramid", "sim-resch-table", "code-check-symbol",
        "sim-reps-200"])
    def test_report_scenario_replays_the_run(self, tmp_path, args):
        assert run_cli(args + ["--out", "run"], tmp_path) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        (tmp_path / "scenario.json").write_text(json.dumps(run["scenario"]))
        assert run_cli(args[:2] + ["--config", "scenario.json", "--seed",
                                   str(run["seed"]), "--out", "replay"],
                       tmp_path) == 0
        replay = json.loads((tmp_path / "replay.json").read_text())
        assert replay["rows"] == run["rows"]
        assert replay["scenario"] == run["scenario"]

    @pytest.mark.parametrize("args,section,rows", [
        (["code", "check", "--builder", "rdp", "--param", "p=5",
          "--granularity", "symbol"],
         {"code": {"builder": "rdp", "params": {"p": 5},
                   "granularity": "symbol"}},
         {"recoverable": 276, "total": 276}),
        (["sim", "reliability", "--preset", "resch-row2", "--reps", "200"],
         {"sim": dict(load_preset("resch-row2")["sim"], replications=200)},
         {"replications": 200}),
    ], ids=["granularity", "reps-over-preset"])
    def test_flags_set_their_keys(self, tmp_path, args, section, rows):
        assert run_cli(args + ["--out", "r"], tmp_path) == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["scenario"] == dict(section, version="1")
        got = {r["metric"]: r["value"] for r in doc["rows"]}
        assert {k: got[k] for k in rows} == rows


class TestRunInputs:
    """Each flag and scenario key that a run reads reaches its model, and
    the model gets no value that neither gives."""

    @pytest.mark.parametrize("command,doc,flags,fn,passed,absent", [
        ("sim queue", {"sim": dict(MG1, replications=100000)},
         ["--reps", "30000"], "sim.sim_queue", {"n_customers": 30000},
         ["level"]),
        ("sim queue", {"sim": dict(MG1, level=0.9)}, [], "sim.sim_queue",
         {"level": 0.9}, ["n_customers"]),
        ("sim reliability", {"copyset": COPYSET,
                             "sim": {"replications": 3000, "level": 0.9}},
         [], "sim.sim_copyset_loss",
         {"reps": 3000, "level": 0.9, "fail_fraction": 0.4},
         ["fail_count"]),
        ("sim reliability", {"copyset": COPYSET}, ["--reps", "3000"],
         "sim.sim_copyset_loss", {"reps": 3000}, ["level"]),
        ("sim reliability", {"sim": GENERIC}, ["--seed", "4"],
         "sim.sim_generic_mttdl", {"n": 10, "tolerance": 1, "seed": 4},
         ["reps", "level", "regime"]),
        ("sim reliability", {"sim": {"kind": "resch-table", "level": 0.9}},
         ["--reps", "300"], "sim.sim_generic_mttdl",
         {"reps": 300, "level": 0.9}, ["regime"]),
        ("code check", load_preset("was-lrc"), ["--erasures", "all-triples"],
         "codes.recoverable_fraction", {"f": 3, "granularity": "column"},
         ["decoder", "budget"]),
    ], ids=["queue-reps-flag", "queue-level", "copyset-section",
            "copyset-reps-flag", "generic-defaults", "resch-table-level",
            "erasures-flag-over-preset"])
    def test_model_gets_what_the_run_gives(self, tmp_path, monkeypatch,
                                           command, doc, flags, fn, passed,
                                           absent):
        module, name = fn.split(".")
        layer = importlib.import_module("raidlab." + module)
        calls = []
        real = getattr(layer, name)

        def spy(*args, **kwargs):
            # the arguments by parameter name, defaults left out
            calls.append(inspect.signature(real).bind(*args, **kwargs)
                         .arguments)
            return real(*args, **kwargs)

        monkeypatch.setattr(layer, name, spy)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(command.split() + ["--config", str(cfg)] + flags,
                       tmp_path) == 0
        got = calls[0]
        assert {k: got.get(k) for k in passed} == passed
        assert [k for k in absent if k in got] == []

    @pytest.mark.parametrize("doc,env_seed,seed", [
        (None, 9, 9),
        ({"layout": {"kind": "nrp", "disks": 10, "group": 4, "seed": 5}},
         None, 5),
    ], ids=["env-seed", "section-seed"])
    def test_layout_is_drawn_with_the_report_seed(self, tmp_path, doc,
                                                  env_seed, seed):
        # the report used to record the seed while the layout was drawn
        # with seed 0, or record 0 while it was drawn with the section's
        nrp = ["--kind", "nrp", "--disks", "10", "--group", "4"]
        if doc is None:
            source = nrp
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            source = ["--config", "cfg.json"]
        assert run_cli(["layout", "gen", "--out", "r", "--out-layout",
                        "a.json"] + source, tmp_path, env_seed=env_seed) == 0
        assert json.loads((tmp_path / "r.json").read_text())["seed"] == seed
        for name, s in (("b", seed), ("zero", 0)):
            assert run_cli(["layout", "gen", "--out-layout", name + ".json",
                            "--seed", str(s)] + nrp, tmp_path) == 0
        drawn = (tmp_path / "a.json").read_text()
        assert drawn == (tmp_path / "b.json").read_text()
        assert drawn != (tmp_path / "zero.json").read_text()

    @pytest.mark.parametrize("args", [
        ["analyze", "queueing", "--preset", "cheetah"],
        ["code", "check", "--builder", "rdp", "--param", "p=5"],
        ["layout", "verify", "--kind", "bibd-10-4"],
        ["compare", "shortcut", "--N", "8", "--eps", "0.025"],
    ], ids=["analyze", "code", "layout", "compare"])
    def test_jobs_outside_sim_exit_2(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + ["--jobs", "2"], tmp_path)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def unread_options(source, parser):
    """(command, option) of each option that a subcommand of `parser`
    declares, its parents' included, and that nothing on the command's path
    reads as args.<dest>.  The path is its handler (the parser's `fn`
    default), main, and each function of `source` that either passes
    `args` to."""
    funcs = {node.name: node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        if name in seen or name not in funcs:
            return set()
        seen.add(name)
        out = set()
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "args":
                out.add(node.attr)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    any(isinstance(a, ast.Name) and a.id == "args"
                        for a in node.args):
                out |= reads(node.func.id, seen)
        return out

    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, p in sub.choices.items():
        path = reads(p.get_default("fn").__name__, set())
        path |= reads("main", set())
        unread += [(command, (a.option_strings or [a.dest])[0])
                   for a in p._actions
                   if a.dest != "help" and a.dest not in path]
    return unread


class TestOptionsAreRead:
    def test_every_option_is_read_on_its_command_path(self):
        assert unread_options(inspect.getsource(cli), cli.build_parser()) == []

    def test_option_checker_finds_an_unread_option(self):
        source = ("def cmd(args):\n"
                  "    return helper(args)\n"
                  "def helper(args):\n"
                  "    return args.a, args.what\n"
                  "def other(args):\n"
                  "    return args.b\n"
                  "def main(argv=None):\n"
                  "    args = parse(argv)\n"
                  "    return args.out\n")

        def cmd(args):
            return args

        parser = argparse.ArgumentParser()
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument("--out")
        p = parser.add_subparsers().add_parser("x", parents=[common])
        p.add_argument("what")
        p.add_argument("--a")
        p.add_argument("--b")
        p.set_defaults(fn=cmd)
        assert unread_options(source, parser) == [("x", "--b")]


class TestReportType:
    def test_rows_structure(self):
        rep = Report(scenario={}, command="x", seed=1)
        rep.add("m", 1.0, "ms", ci=(0.9, 1.1), provenance="p")
        row = rep.rows[0]
        assert set(row) == {"metric", "value", "unit", "ci_low", "ci_high",
                            "provenance"}

    def test_csv_header_fixed(self):
        rep = Report(scenario={}, command="x")
        assert rep.to_csv().splitlines()[0] == \
            "metric,value,unit,ci_low,ci_high,provenance"


class TestMoreCommands:
    def test_analyze_rebuild(self, tmp_path):
        cfg = tmp_path / "rb.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "profile": {"preset": "cheetah"},
            "workload": {"arrival_rate": 60.0, "read_fraction": 1.0},
            "rebuild": {"stages": 10},
            "reliability": {"disks": 8},
        }))
        assert run_cli(["analyze", "rebuild", "--config", str(cfg),
                        "--out", "rb"], tmp_path) == 0
        doc = json.loads((tmp_path / "rb.json").read_text())
        metrics = {r["metric"]: r for r in doc["rows"]}
        assert metrics["degraded_load_increase"]["value"] == pytest.approx(2.0)
        assert metrics["rebuild_time_staged"]["unit"] == "hours"

    def test_analyze_ctmc(self, tmp_path):
        cfg = tmp_path / "ch.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "ctmc": {"transitions": [["a", "b", 0.5]], "absorbing": ["b"],
                     "initial": {"a": 1.0}, "times": [1.0]},
        }))
        assert run_cli(["analyze", "ctmc", "--config", str(cfg),
                        "--out", "ch"], tmp_path) == 0
        doc = json.loads((tmp_path / "ch.json").read_text())
        metrics = {r["metric"]: r["value"] for r in doc["rows"]}
        assert metrics["mtta"] == pytest.approx(2.0)

    def test_analyze_ctmc_integer_labels_initial(self, tmp_path):
        # JSON object keys are strings: "1" names the integer label 1
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "ctmc": {"transitions": [[0, 1, 0.5], [1, 2, 0.25], [1, 0, 1.0]],
                     "absorbing": [2], "initial": {"1": 1.0}},
        }))
        assert run_cli(["analyze", "ctmc", "--config", str(cfg),
                        "--out", "ints"], tmp_path) == 0
        doc = json.loads((tmp_path / "ints.json").read_text())
        metrics = {r["metric"]: r["value"] for r in doc["rows"]}
        assert metrics["mtta"] == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("rate,shown", [("NaN", "nan"),
                                            ("Infinity", "inf")])
    def test_analyze_ctmc_rate_not_finite_exit_3(self, tmp_path, capsys,
                                                 rate, shown):
        # json reads NaN and Infinity; such a rate used to pass the build
        # and surface as "absorbing states unreachable"
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"version": "1", "ctmc": {"transitions": '
                       '[["a", "b", %s]], "absorbing": ["b"]}}' % rate)
        assert run_cli(["analyze", "ctmc", "--config", str(cfg)],
                       tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "domain", "detail": "rate %s on 'a' -> 'b' "
                       "is not finite and >= 0" % shown}

    @pytest.mark.parametrize("ctmc,detail", [
        ({"transitions": [[["a"], "b", 0.5]], "absorbing": ["b"]},
         "['a'] is not of type 'string', 'integer' "
         "(at ctmc/transitions/0/0)"),
        ({"transitions": [["a", "b", "0.5"]], "absorbing": ["b"]},
         "'0.5' is not of type 'number' (at ctmc/transitions/0/2)"),
        ({"transitions": [["a", "b", 0.5]], "absorbing": [["b"]]},
         "['b'] is not of type 'string', 'integer' (at ctmc/absorbing/0)"),
    ], ids=["list-label", "string-rate", "list-absorbing"])
    def test_analyze_ctmc_mistyped_transition_exit_2(self, tmp_path, capsys,
                                                     ctmc, detail):
        # a list label used to end in "unhashable type" (exit 1), and a
        # string rate used to be converted and run
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"version": "1", "ctmc": ctmc}))
        assert run_cli(["analyze", "ctmc", "--config", str(cfg)],
                       tmp_path) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "schema", "detail": detail}

    def test_analyze_lse_certain_sector_error(self, tmp_path):
        # p_sector = 1 makes P_uf = 1, not a math domain error
        doc = load_preset("sata-idr")
        doc["reliability"]["scheme"] = "none"
        doc["reliability"]["lse"] = {"p_sector": 1.0, "capacity_gib": 300}
        cfg = tmp_path / "lse.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["analyze", "lse", "--config", str(cfg),
                        "--out", "lse"], tmp_path) == 0
        rows = json.loads((tmp_path / "lse.json").read_text())["rows"]
        metrics = {r["metric"]: r["value"] for r in rows}
        assert metrics["p_seg"] == 1.0 and metrics["p_uf"] == 1.0

    def test_analyze_ctmc_curve_rows_keep_order(self, tmp_path):
        from raidlab.ctmc import build_ctmc, reliability_curve
        spec = {"transitions": [["ok", "deg", 0.3], ["deg", "ok", 2.0],
                                ["deg", "lost", 0.2]],
                "absorbing": ["lost"], "initial": {"ok": 1.0},
                "times": [50.0, 2.5, 0.0, 50.0, 10.0]}
        cfg = tmp_path / "ch.json"
        cfg.write_text(json.dumps({"version": "1", "ctmc": spec}))
        assert run_cli(["analyze", "ctmc", "--config", str(cfg),
                        "--out", "ch"], tmp_path) == 0
        rows = [r for r in json.loads((tmp_path / "ch.json").read_text())
                ["rows"] if r["metric"].startswith("reliability")]
        chain = build_ctmc([tuple(e) for e in spec["transitions"]],
                           absorbing=spec["absorbing"],
                           initial=spec["initial"])
        assert [r["metric"] for r in rows] == \
            ["reliability[t=%g]" % t for t in spec["times"]]
        for r, t in zip(rows, spec["times"]):
            want = reliability_curve(chain, [t])[0]
            assert r["value"] == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_sim_queue_config(self, tmp_path):
        cfg = tmp_path / "q.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "sim": {"kind": "queue", "model": "mg1",
                    "params": {"arrival_rate": 0.05,
                               "service": ["exp", 10.0]},
                    "replications": 100000, "seed": 3},
        }))
        assert run_cli(["sim", "queue", "--config", str(cfg),
                        "--out", "q"], tmp_path) == 0
        doc = json.loads((tmp_path / "q.json").read_text())
        rows = {r["metric"]: r for r in doc["rows"]}
        assert rows["wait"]["ci_low"] is not None
        assert rows["rho"]["unit"] == ""
        assert rows["wait"]["value"] == pytest.approx(10.0, rel=0.1)

    @pytest.mark.parametrize("sim,detail", [
        ({"model": "fj", "params": {"arrival_rate": 0.2, "ways": 2,
                                    "service": ["exp", 10.0]}},
         "unstable: rho=2.000"),
        ({"model": "mg1", "params": {"arrival_rate": 0.05,
                                     "service": ["exp", 10.0]},
          "replications": 5000},
         "n_customers=5000 less warmup=10000"),
        ({"model": "mg1", "params": {"arrival_rate": 0.0,
                                     "service": ["exp", 10.0]}},
         "mg1 queue needs arrival_rate > 0, got 0.0"),
    ], ids=["overload", "too-few-customers", "zero-arrival-rate"])
    def test_sim_queue_domain_error_exit_3(self, tmp_path, capsys, sim,
                                           detail):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": "1",
                                   "sim": dict(kind="queue", **sim)}))
        assert run_cli(["sim", "queue", "--config", str(cfg),
                        "--out", "q"], tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "domain"
        assert detail in err["detail"]
        assert not (tmp_path / "q.json").exists()

    def test_generic_tolerance_of_every_component_exit_3(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": "1", "sim": {
            "kind": "generic", "components": 10, "tolerance": 10,
            "delta": 0.001, "mu": 1.0}}))
        assert run_cli(["sim", "reliability", "--config", str(cfg),
                        "--out", "g"], tmp_path) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "domain", "detail": "tolerance must be in "
                       "0..9 for n=10 components, got 10"}
        assert not (tmp_path / "g.json").exists()

    def test_resch_table_preset_row_per_config(self, tmp_path):
        assert run_cli(["sim", "reliability", "--preset", "resch-table",
                        "--reps", "500", "--out", "t", "--format", "csv"],
                       tmp_path) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 5  # header + three metrics per row

    def test_inline_code_config(self, tmp_path):
        from raidlab import builders, codes
        doc = codes.to_json(builders.raid5(5))
        cfg = tmp_path / "inline.json"
        cfg.write_text(json.dumps({
            "version": "1",
            "code": {"inline": doc, "erasures": "all-pairs",
                     "granularity": "column"},
        }))
        assert run_cli(["code", "check", "--config", str(cfg),
                        "--out", "ic"], tmp_path) == 0
        out = json.loads((tmp_path / "ic.json").read_text())
        metrics = {r["metric"]: r["value"] for r in out["rows"]}
        assert metrics["recoverable"] == 0  # single parity: no pair survives
        assert metrics["total"] == 10
