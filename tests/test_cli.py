import json
import os
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator

import raidlab
from raidlab.cli import main
from raidlab.config import (Report, SCENARIO_SCHEMA, load_preset,
                            validate_scenario, SchemaError)


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
                                            "data": 7, "mttf_hours": 1e5}}))
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

    @pytest.mark.parametrize("n,detail", [
        ("-3", "n must be a non-negative integer"),
        ("1", "id has a negative leading coefficient -0.25 at N = 1"),
    ], ids=["N-3", "N1"])
    def test_compare_shortcut_negative_terms_exit_3(self, tmp_path, capsys,
                                                     n, detail):
        # such N used to be ranked, negative unreliabilities and all
        assert run_cli(["compare", "shortcut", "--N", n, "--eps", "0.025"],
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
    ], ids=["hraid-extra-key", "generic-missing-key", "chen-missing-key",
            "ctmc-missing-section", "nrp-missing-group",
            "shifted-missing-disks", "mg1-missing-param",
            "profile-missing-key"])
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
