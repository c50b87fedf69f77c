"""Scenario-driven command line: load a config (or preset), run analyses,
simulations or enumerations, and emit machine-readable reports.

Exit codes: 0 success, 2 schema violation, 3 domain error, 4 enumeration
budget exceeded.  A flag that changes a result sets its scenario key, and a
model is passed only what the scenario gives, which the report echoes.

Each command imports only the layers it runs, so a closed form does not pay
for numpy and a layout check does not pay for the code enumerator.
"""

import argparse
import json
import os
import sys
import time

from .config import (DomainError, Report, SchemaError, code_from_config,
                     copyset_from_config, emit, load_preset, load_scenario,
                     model_from_config, profile_from_config,
                     validate_scenario, workload_from_config)


def _report(args, scenario, section):
    """The command's report.  The run's seed is --seed, then RAIDLAB_SEED,
    then the seed of the command's section (sim or layout), then 0."""
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("RAIDLAB_SEED", section.get("seed", 0)))
    return Report(scenario=scenario, command="%s %s" % (args.cmd, args.what),
                  seed=seed)


def _scenario(args, name=None, **flags):
    """The --config file, else the --preset, else an empty scenario, with
    each flag given (not None) set as its key of section `name`."""
    scenario = (load_scenario(args.config) if args.config else
                load_preset(args.preset) if args.preset else {"version": "1"})
    given = {key: value for key, value in flags.items() if value is not None}
    if given:
        scenario = validate_scenario(
            dict(scenario, **{name: dict(scenario.get(name, {}), **given)}))
    return scenario


def _need(cfg, key, where):
    """cfg[key]; a key the schema allows to be missing is a domain error
    that names it."""
    try:
        return cfg[key]
    except KeyError:
        raise DomainError("%s needs %r" % (where, key)) from None


# The keys of its section that each sim or layout kind reads, besides kind
# and seed; after a colon, the parameter of the kind's model where its name
# differs, and after a "!", a key the kind needs
_KIND_KEYS = {
    "hraid": "nodes disks_per_node inter_tolerance intra_tolerance delta "
             "gamma replications level",
    "generic": "components:n! delta! mu! regime tolerance replications:reps "
               "level",
    "resch-table": "regime replications:reps level",
    "copyset": "replications:reps level",
    "queue": "model! params! replications:n_customers level",
    "bibd-10-4": "",
    "nrp": "disks:n! group:g! rows",
    "shifted": "disks:n! group:g!",
}


def _keywords(section, kind, cfg):
    """The keywords of a `kind` model from its section cfg; a key that the
    kind does not read, or needs and cfg lacks, is a domain error."""
    params = {}
    for item in _KIND_KEYS[kind].split():
        key, _, param = item.rstrip("!").partition(":")
        params[key] = param or key
        if item.endswith("!"):
            _need(cfg, key, section)
    unread = sorted(set(cfg) - set(params) - {"kind", "seed"})
    if unread:
        raise DomainError("a %s %s does not read %s" % (
            kind, section, ", ".join(section + "." + k for k in unread)))
    return {params[k]: v for k, v in cfg.items() if k in params}


def _params_from_config(cfg):
    from .reliability import ReliabilityParams
    return model_from_config(ReliabilityParams, dict(
        disks=_need(cfg, "disks", "reliability"),
        delta=1.0 / _need(cfg, "mttf_hours", "reliability"),
        mu=(1.0 / cfg["mttr_hours"]) if cfg.get("mttr_hours") else 0.0,
    ))


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args):
    scenario = _scenario(args)
    report = _report(args, scenario, {})
    if args.what in ("queueing", "rebuild"):
        profile = profile_from_config(scenario.get("profile"))
        workload = workload_from_config(_need(scenario, "workload",
                                              "scenario"))
    if args.what == "queueing":
        from . import disk as diskmod, queueing as qmod
        svc = diskmod.service_time_moments(profile, workload.request_sectors)
        report.add("service_mean", svc.m1, "ms", provenance="seek+latency+transfer")
        report.add("service_cv2", svc.cv2, "", provenance="moments")
        stats = qmod.mg1_wait(workload.arrival_rate, svc)
        report.add("utilization", stats.utilization, "")
        report.add("wait", stats.wait, "ms", provenance="pollaczek-khinchine")
        report.add("response", stats.response, "ms",
                   provenance="pollaczek-khinchine")
        report.add("response_cv2",
                   qmod.response_cv(workload.arrival_rate, svc), "",
                   provenance="response-moments")
    elif args.what == "rebuild":
        from . import rebuild as rbmod
        cfg = model_from_config(rbmod.RebuildConfig,
                                scenario.get("rebuild", {}))
        t_staged = rbmod.rebuild_time_vsm(profile, workload, cfg)
        report.add("rebuild_time_staged", t_staged / 3.6e6, "hours",
                   provenance="vacationing-server")
        t_short = rbmod.rebuild_time_vsm(profile, workload, cfg,
                                         mode="shortcut")
        report.add("rebuild_time_shortcut", t_short / 3.6e6, "hours",
                   provenance="beta-slowdown")
        t_bw = rbmod.rebuild_time_bandwidth(profile, workload, cfg)
        report.add("rebuild_time_bandwidth", t_bw / 3.6e6, "hours",
                   provenance="transfer-rate")
        disks = _need(scenario.get("reliability", {}), "disks", "reliability")
        incr = rbmod.degraded_load_increase(disks, workload.read_fraction)
        report.add("degraded_load_increase", incr, "")
    elif args.what == "mttdl":
        from . import reliability as rel
        rcfg = _need(scenario, "reliability", "scenario")
        model = rcfg.get("model", "raid5")
        if model == "raid5":
            params = _params_from_config(rcfg)
            _, mttdl, _ = rel.raid5_closed_form(params)
            report.add("mttdl", mttdl, "hours", provenance="closed-form")
            from . import ctmc as ctmcmod
            chain = rel.raid5_chain(params)
            total, _, _ = ctmcmod.mean_time_to_absorption(chain)
            report.add("mttdl_ctmc", total, "hours", provenance="ctmc-solve")
        elif model in ("chen", "angus"):
            n = _need(rcfg, "disks", "reliability")
            k = _need(rcfg, "data", "reliability")
            mttf = _need(rcfg, "mttf_hours", "reliability")
            mttr = _need(rcfg, "mttr_hours", "reliability")
            val = (rel.chen_mttdl(n, n - k, mttf, mttr) if model == "chen"
                   else rel.angus_mttdl(n, k, mttf, mttr))
            report.add("mttdl", val, "hours", provenance=model)
        else:
            raise DomainError("unknown mttdl model %r" % (model,))
    elif args.what == "lse":
        from . import reliability as rel
        rcfg = _need(scenario, "reliability", "scenario")
        kw = dict(_need(rcfg, "lse", "reliability"))
        if "capacity_gib" in kw:
            kw["capacity_bytes"] = kw.pop("capacity_gib") * 2 ** 30
        lse = model_from_config(rel.LseParams, kw)
        params = _params_from_config(rcfg)
        scheme = rcfg.get("scheme", "none")
        error_model = rcfg.get("error_model", "independent")
        p_seg = rel.pseg(scheme, error_model, lse)
        report.add("p_seg", p_seg, "", provenance="%s/%s" % (scheme, error_model))
        report.add("p_uf", rel.p_uf(lse, params.disks, 1, p_seg), "",
                   provenance="critical-rebuild")
        report.add("mttdl", rel.mttdl_with_lse("raid5", params, lse, scheme,
                                               error_model),
                   "hours", provenance="lse-closed-form")
    elif args.what == "placement":
        from . import reliability as rel
        pcfg = _need(_need(scenario, "reliability", "scenario"), "placement",
                     "reliability")
        params = model_from_config(rel.PlacementParams, pcfg)
        for placement in ("cp", "dp"):
            mttdl, rate, _ = rel.eafdl(params, placement)
            report.add("mttdl_%s" % placement, mttdl, "hours",
                       provenance="placement-closed-form")
            report.add("eafdl_%s" % placement, rate, "1/year-fraction",
                       provenance="placement-closed-form")
    elif args.what == "ctmc":
        from . import ctmc as ctmcmod
        ccfg = _need(scenario, "ctmc", "scenario")
        initial = ccfg.get("initial")
        if initial is not None:
            # JSON object keys are strings: a key that is no label, but
            # spells an integer label in decimal, names that integer label
            labels = {x for t in ccfg["transitions"] for x in t[:2]}
            ints = {str(x): x for x in labels if isinstance(x, int)}
            initial = {k if k in labels else ints.get(k, k): p
                       for k, p in initial.items()}
        chain = ctmcmod.build_ctmc(ccfg["transitions"],
                                   absorbing=ccfg["absorbing"],
                                   initial=initial)
        total, per_state, probs = ctmcmod.mean_time_to_absorption(chain)
        report.add("mtta", total, "hours", provenance="linear-solve")
        for state, p in sorted(probs.items(), key=lambda kv: str(kv[0])):
            report.add("absorb_prob[%s]" % state, p, "")
        times = ccfg.get("times", [])
        for t, r_t in zip(times, ctmcmod.reliability_curve(chain, times)):
            report.add("reliability[t=%g]" % t, r_t, "",
                       provenance="uniformization")
    return report


# ---------------------------------------------------------------------------
# code


def _param(item):
    """(key, value) of --param key=value, value read as JSON where it is."""
    key, _, text = item.partition("=")
    try:
        return key, json.loads(text)
    except json.JSONDecodeError:
        return key, text


def cmd_code(args):
    from . import codes
    for flag, value, readers in (("--erasures", args.erasures, ["check"]),
                                 ("--granularity", args.granularity,
                                  ["check", "tolerance"])):
        if value is not None and args.what not in readers:
            raise DomainError("code %s does not read %s" % (args.what, flag))
    scenario = _scenario(
        args, "code", builder=args.builder, erasures=args.erasures,
        granularity=args.granularity,
        params=None if args.param is None else dict(map(_param, args.param)))
    ccfg = _need(scenario, "code", "scenario")
    code = code_from_config(ccfg)
    granularity = ccfg.get("granularity", "column")
    report = _report(args, scenario, {})
    if args.what == "check":
        spec = ccfg.get("erasures", "all-pairs")
        all_k = ("all-pairs", "all-triples", "all-quads")
        if isinstance(spec, list):
            good, total = int(codes.is_recoverable(code, spec, granularity)), 1
        elif spec in all_k:
            _, _, (good, total) = codes.recoverable_fraction(
                code, all_k.index(spec) + 2, granularity)
        else:
            raise DomainError("unsupported erasure spec %r" % (spec,))
        report.add("recoverable", good, "patterns", provenance="rank-test")
        report.add("total", total, "patterns")
        report.add("fraction", good / total, "")
        print("%d/%d recoverable" % (good, total))
    elif args.what == "metrics":
        m = codes.repair_metrics(code)
        for key in ("ARC", "NRC", "ADRC", "DRC", "ARC2"):
            if m[key] is not None:
                report.add(key, m[key], "symbol reads",
                           provenance="repair-plan")
    else:
        t = codes.erasure_tolerance(code, granularity)
        report.add("tolerance", t, "%s erasures" % granularity,
                   provenance="enumeration")
    return report


# ---------------------------------------------------------------------------
# layout


def cmd_layout(args):
    from . import declustering
    scenario = _scenario(args, "layout", kind=args.kind, disks=args.disks,
                         group=args.group)
    lcfg = _need(scenario, "layout", "scenario")
    report = _report(args, scenario, lcfg)
    kw = _keywords("layout", lcfg["kind"], lcfg)
    if lcfg["kind"] == "bibd-10-4":
        layout = declustering.bibd_10_4_2()
    elif lcfg["kind"] == "nrp":
        layout = declustering.nrp_layout(seed=report.seed, **kw)
    else:
        layout = declustering.shifted_layout(**kw)
    if args.what == "gen":
        report.add("disks", layout.disks, "")
        report.add("group_size", layout.group_size, "")
        report.add("rows", layout.rows, "")
        violations = layout.distinct_disk_violations()
        report.add("distinct_disk_violations", len(violations), "groups",
                   provenance="verification")
        counts = layout.parity_counts()
        report.add("parity_imbalance", max(counts) - min(counts), "strips",
                   provenance="verification")
    elif lcfg["kind"] == "bibd-10-4":
        rep = declustering.verify_bibd(layout)
        report.add("ok", int(rep["ok"]), "", provenance="design-identities")
        for key in ("n", "k", "L", "b", "r"):
            report.add(key, rep[key], "")
        for v in rep["violations"]:
            report.add("violation", v, "")
    else:
        violations = layout.distinct_disk_violations()
        report.add("ok", int(not violations), "",
                   provenance="distinct-disk-check")
    if args.out_layout:
        with open(args.out_layout, "w") as fh:
            json.dump(declustering.layout_to_json(layout), fh, indent=2)
    return report


# ---------------------------------------------------------------------------
# sim


def _sim_run(args, scenario, scfg):
    """(kind, keywords): the sim kind that the command and the sections
    run, and its model's keywords from the sim section."""
    if args.what == "queue":
        runs, kinds = "sim queue", ["queue"]
    elif "copyset" in scenario:
        runs, kinds = "sim reliability with a copyset section", ["copyset"]
    else:
        runs = "sim reliability without a copyset section"
        kinds = ["hraid", "generic", "resch-table"]
    kind = scfg.get("kind", kinds[0])
    if kind not in kinds:
        raise DomainError("%s runs sim.kind %s, not %r"
                          % (runs, " or ".join(map(repr, kinds)), kind))
    if args.jobs != 1 and kind != "hraid":
        raise DomainError("--jobs %d: a %s sim does not split its "
                          "replications" % (args.jobs, kind))
    return kind, _keywords("sim", kind, scfg)


def cmd_sim(args):
    from . import sim as simmod
    scenario = _scenario(args, "sim", replications=args.reps)
    scfg = scenario.get("sim") or {}
    kind, kw = _sim_run(args, scenario, scfg)
    report = _report(args, scenario, scfg)
    kw["seed"] = report.seed
    if kind == "queue":
        res = simmod.sim_queue(**kw)
        unitless = {"rho", "mean_units_per_idle", "rebuild_reads"}
        for key, val in sorted(res.items()):
            if key.endswith("_hw") or key == "n":
                continue
            hw = res.get(key + "_hw")
            report.add(key, val, "" if key in unitless else "ms",
                       ci=None if hw is None else (val - hw, val + hw),
                       provenance="des")
        return report
    if kind == "copyset":
        ccfg = scenario["copyset"]
        rep = simmod.sim_copyset_loss(
            copyset_from_config(ccfg), **kw, **{
                key: ccfg[key] for key in ("fail_count", "fail_fraction")
                if key in ccfg})
        report.add("p_dl", rep.estimate, "",
                   ci=None if rep.half_width == 0 else rep.ci,
                   provenance="exact-enumeration" if rep.extras.get("exact")
                   else "montecarlo")
        return report
    if kind == "resch-table":
        from . import reliability as rel
        seed = kw.pop("seed")
        # one row per (disks, data) configuration of the validation table
        rows = [(10, 10, 2000.0), (10, 9, 2000.0), (10, 8, 1500.0),
                (10, 7, 500.0), (10, 6, 150.0)]
        for i, (n, k, mttf) in enumerate(rows):
            tag = "[n=%d,k=%d]" % (n, k)
            report.add("chen%s" % tag, rel.chen_mttdl(n, n - k, mttf, 1.0),
                       "hours", provenance="fixed-rate-repair")
            report.add("angus%s" % tag, rel.angus_mttdl(n, k, mttf, 1.0),
                       "hours", provenance="per-failure-repair")
            sim_rep = simmod.sim_generic_mttdl(
                n, 1.0 / mttf, 1.0, tolerance=n - k, seed=seed + i, **kw)
            report.add("simulated%s" % tag, sim_rep.estimate, "hours",
                       ci=sim_rep.ci, provenance="montecarlo")
        return report
    if kind == "generic":
        rep = simmod.sim_generic_mttdl(**kw)
    else:
        rep = simmod.sim_hraid_mttdl(
            model_from_config(simmod.SimConfig, kw), jobs=args.jobs)
        for cause, frac in rep.breakdown.items():
            report.add("loss_fraction[%s]" % cause, frac, "",
                       provenance="montecarlo")
    report.add("mttdl", rep.estimate, "hours", ci=rep.ci,
               provenance="montecarlo")
    report.add("replications", rep.replications, "")
    return report


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args):
    from . import reliability as rel
    report = _report(args, {"version": "1"}, {})
    orgs = args.orgs.split(",") if args.orgs else \
        ["raid5", "bm", "cd", "grd", "id", "raid6", "lsi", "raid7", "sspiral"]
    rows = rel.shortcut_compare(orgs, args.N, args.eps)
    for rank, (org, coeff, power, term) in enumerate(rows, start=1):
        report.add("rank%02d[%s]" % (rank, org), term, "unreliability",
                   provenance="eps^%d leading term" % power)
        print("%2d. %-8s %.3e (coeff %.4g, eps^%d)"
              % (rank, org, term, coeff, power))
    return report


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="raidlab",
        description="storage reliability and performance toolkit")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed (else RAIDLAB_SEED, else the section's)")
    common.add_argument("--out", default=None,
                        help="report path base (default: report)")
    common.add_argument("--format", default="json",
                        help="comma list of output formats (json,csv,tsv)")
    scenario = argparse.ArgumentParser(add_help=False, parents=[common])
    scenario.add_argument("--config", help="scenario JSON file")
    scenario.add_argument("--preset", help="bundled scenario, by name")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="closed-form analyses",
                       parents=[scenario])
    p.add_argument("what", choices=["queueing", "rebuild", "mttdl", "lse",
                                    "placement", "ctmc"])
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("code", help="erasure code enumeration and metrics",
                       parents=[scenario])
    p.add_argument("what", choices=["check", "metrics", "tolerance"])
    p.add_argument("--builder", help="sets code.builder")
    p.add_argument("--param", action="append",
                   help="key=value, repeatable: together they set code.params")
    p.add_argument("--erasures", help="sets code.erasures (check): all-pairs "
                   "| all-triples | all-quads")
    p.add_argument("--granularity", choices=["symbol", "column"],
                   help="sets code.granularity (check, tolerance), which "
                   "defaults to column")
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("layout", help="parity placement layouts",
                       parents=[scenario])
    p.add_argument("what", choices=["gen", "verify"])
    p.add_argument("--kind", choices=["bibd-10-4", "nrp", "shifted"],
                   help="sets layout.kind")
    p.add_argument("--disks", type=int, help="sets layout.disks")
    p.add_argument("--group", type=int, help="sets layout.group")
    p.add_argument("--out-layout", help="path of the layout JSON to write")
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("sim", help="Monte-Carlo simulation",
                       parents=[scenario])
    p.add_argument("what", choices=["reliability", "queue"])
    p.add_argument("--reps", type=int, help="sets sim.replications: "
                   "replications, or customers of a queue sim")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for a hraid sim, which splits its "
                   "replications by block: any count gives the same report")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("compare", help="shortcut reliability ranking",
                       parents=[common])
    p.add_argument("what", choices=["shortcut"])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--orgs", default=None)
    p.set_defaults(fn=cmd_compare)
    return parser


def _raised(layer, name):
    """The exception class raidlab.<layer>.<name> as a one-tuple, or () if
    the command never imported that layer and so cannot have raised it."""
    mod = sys.modules.get("raidlab." + layer)
    return () if mod is None else (getattr(mod, name),)


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        report = args.fn(args)
    except SchemaError as err:
        print("schema error: %s" % err, file=sys.stderr)
        print(json.dumps({"error": "schema", "detail": str(err)}),
              file=sys.stderr)
        return 2
    except _raised("codes", "BudgetExceeded") as err:
        print(json.dumps({"error": "budget", "detail": str(err)}),
              file=sys.stderr)
        return 4
    except (DomainError, ValueError) + _raised("queueing",
                                              "SaturationError") as err:
        print(json.dumps({"error": "domain", "detail": str(err)}),
              file=sys.stderr)
        return 3
    report.elapsed_s = time.time() - started
    base = args.out or "report"
    formats = [f.strip() for f in args.format.split(",") if f.strip()]
    paths = emit(report, formats, base)
    for row in report.rows:
        ci = ""
        if row["ci_low"] is not None:
            ci = " [%.6g, %.6g]" % (row["ci_low"], row["ci_high"])
        print("%-28s %s %s%s" % (row["metric"], row["value"], row["unit"], ci))
    print("report written: %s" % ", ".join(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
