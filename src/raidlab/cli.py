"""Scenario-driven command line: load a config (or preset), run analyses,
simulations or enumerations, and emit machine-readable reports.

Exit codes: 0 success, 2 schema violation, 3 domain error, 4 enumeration
budget exceeded.  The seed defaults to --seed, then RAIDLAB_SEED, then 0.

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
                     workload_from_config)


def _seed(args, scenario):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RAIDLAB_SEED")
    if env is not None:
        return int(env)
    sim_cfg = scenario.get("sim") or {}
    return int(sim_cfg.get("seed", 0))


def _scenario(args):
    if getattr(args, "config", None):
        return load_scenario(args.config)
    if getattr(args, "preset", None):
        return load_preset(args.preset)
    return {"version": "1"}


def _need(cfg, key, where):
    """cfg[key]; a key the schema allows to be missing is a domain error
    that names it."""
    try:
        return cfg[key]
    except KeyError:
        raise DomainError("%s needs %r" % (where, key)) from None


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
    report = Report(scenario=scenario, command="analyze %s" % args.what,
                    seed=_seed(args, scenario))
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
        incr = rbmod.degraded_load_increase(max(scenario.get("reliability", {})
                                                .get("disks", 8), 3),
                                            workload.read_fraction)
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
            mttr = rcfg.get("mttr_hours", 1.0)
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
    else:
        raise DomainError("unknown analysis %r" % (args.what,))
    return report


# ---------------------------------------------------------------------------
# code


def cmd_code(args):
    from . import codes
    scenario = _scenario(args)
    if args.builder:
        params = {}
        for item in args.param or []:
            key, _, val = item.partition("=")
            try:
                params[key] = json.loads(val)
            except json.JSONDecodeError:
                params[key] = val
        ccfg = {"builder": args.builder, "params": params}
        if args.erasures:
            ccfg["erasures"] = args.erasures
        scenario = dict(scenario)
        scenario["code"] = ccfg
    ccfg = scenario.get("code")
    if not ccfg:
        raise DomainError("no code given (use --builder or a config)")
    code = code_from_config(ccfg)
    granularity = args.granularity or ccfg.get("granularity", "column")
    report = Report(scenario=scenario, command="code %s" % args.what,
                    seed=_seed(args, scenario))
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
    elif args.what == "tolerance":
        t = codes.erasure_tolerance(code, granularity)
        report.add("tolerance", t, "%s erasures" % granularity,
                   provenance="enumeration")
    else:
        raise DomainError("unknown code command %r" % (args.what,))
    return report


# ---------------------------------------------------------------------------
# layout


def _layout_from_config(lcfg):
    from . import declustering
    kind = lcfg["kind"]
    if kind == "bibd-10-4":
        return declustering.bibd_10_4_2()
    if kind == "nrp":
        return declustering.nrp_layout(_need(lcfg, "disks", "layout"),
                                       _need(lcfg, "group", "layout"),
                                       rows=lcfg.get("rows"),
                                       seed=lcfg.get("seed", 0))
    if kind == "shifted":
        return declustering.shifted_layout(_need(lcfg, "disks", "layout"),
                                           _need(lcfg, "group", "layout"))
    raise DomainError("unknown layout kind %r" % (kind,))


def cmd_layout(args):
    from . import declustering
    scenario = _scenario(args)
    if args.kind:
        scenario = dict(scenario)
        scenario["layout"] = {"kind": args.kind}
        if args.disks:
            scenario["layout"]["disks"] = args.disks
        if args.group:
            scenario["layout"]["group"] = args.group
        if args.seed is not None:
            scenario["layout"]["seed"] = args.seed
    lcfg = scenario.get("layout")
    if not lcfg:
        raise DomainError("no layout given")
    layout = _layout_from_config(lcfg)
    report = Report(scenario=scenario, command="layout %s" % args.what,
                    seed=_seed(args, scenario))
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
        if args.out_layout:
            with open(args.out_layout, "w") as fh:
                json.dump(declustering.layout_to_json(layout), fh, indent=2)
    elif args.what == "verify":
        if lcfg["kind"] == "bibd-10-4":
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
    else:
        raise DomainError("unknown layout command %r" % (args.what,))
    return report


# ---------------------------------------------------------------------------
# sim


def cmd_sim(args):
    from . import sim as simmod
    scenario = _scenario(args)
    seed = _seed(args, scenario)
    report = Report(scenario=scenario, command="sim %s" % args.what, seed=seed)
    if args.what == "reliability":
        if "copyset" in scenario:
            scheme = copyset_from_config(scenario["copyset"])
            ccfg = scenario["copyset"]
            rep = simmod.sim_copyset_loss(
                scheme, fail_count=ccfg.get("fail_count"),
                fail_fraction=ccfg.get("fail_fraction"),
                reps=args.reps or 10_000, seed=seed)
            report.add("p_dl", rep.estimate, "",
                       ci=None if rep.half_width == 0 else rep.ci,
                       provenance="exact-enumeration" if rep.extras.get("exact")
                       else "montecarlo")
            return report
        scfg = dict(scenario.get("sim") or {})
        if args.reps:
            scfg["replications"] = args.reps
        scfg["seed"] = seed
        kind = scfg.pop("kind", "hraid")
        if kind == "resch-table":
            from . import reliability as rel
            # one row per (disks, data) configuration of the validation table
            rows = [(10, 10, 2000.0), (10, 9, 2000.0), (10, 8, 1500.0),
                    (10, 7, 500.0), (10, 6, 150.0)]
            reps = scfg.get("replications", 10_000)
            for i, (n, k, mttf) in enumerate(rows):
                tag = "[n=%d,k=%d]" % (n, k)
                report.add("chen%s" % tag,
                           rel.chen_mttdl(n, n - k, mttf, 1.0), "hours",
                           provenance="fixed-rate-repair")
                report.add("angus%s" % tag,
                           rel.angus_mttdl(n, k, mttf, 1.0), "hours",
                           provenance="per-failure-repair")
                sim_rep = simmod.sim_generic_mttdl(
                    n, 1.0 / mttf, 1.0, regime=scfg.get("regime", "angus"),
                    tolerance=n - k, reps=reps, seed=seed + i)
                report.add("simulated%s" % tag, sim_rep.estimate, "hours",
                           ci=sim_rep.ci, provenance="montecarlo")
            return report
        if kind == "generic":
            rep = simmod.sim_generic_mttdl(
                n=_need(scfg, "components", "sim"),
                delta=_need(scfg, "delta", "sim"), mu=scfg.get("mu", 0),
                regime=scfg.get("regime", "angus"),
                tolerance=scfg.get("tolerance"),
                reps=scfg.get("replications", 10_000), seed=seed,
                level=scfg.get("level", 0.95))
        elif kind == "hraid":
            try:
                cfg = simmod.SimConfig(**scfg)
            except TypeError as err:  # a key of another sim kind
                raise DomainError("hraid sim: %s" % err)
            rep = simmod.sim_hraid_mttdl(cfg, jobs=args.jobs)
            for cause, frac in rep.breakdown.items():
                report.add("loss_fraction[%s]" % cause, frac, "",
                           provenance="montecarlo")
        else:
            raise DomainError("unknown reliability sim kind %r" % (kind,))
        report.add("mttdl", rep.estimate, "hours", ci=rep.ci,
                   provenance="montecarlo")
        report.add("replications", rep.replications, "")
    elif args.what == "queue":
        scfg = scenario.get("sim") or {}
        model = scfg.get("model")
        params = scfg.get("params", {})
        if not model:
            raise DomainError("sim.model required for queue simulation")
        res = simmod.sim_queue(model, params,
                               n_customers=scfg.get("replications", 200_000),
                               seed=seed)
        unitless = {"rho", "mean_units_per_idle", "rebuild_reads"}
        for key, val in sorted(res.items()):
            if key.endswith("_hw") or key == "n":
                continue
            hw = res.get(key + "_hw")
            report.add(key, val, "" if key in unitless else "ms",
                       ci=None if hw is None else (val - hw, val + hw),
                       provenance="des")
    else:
        raise DomainError("unknown sim command %r" % (args.what,))
    return report


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args):
    from . import reliability as rel
    scenario = {"version": "1"}
    report = Report(scenario=scenario, command="compare shortcut",
                    seed=_seed(args, scenario))
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
                        help="simulation seed (falls back to RAIDLAB_SEED)")
    common.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the hierarchical "
                        "simulation; work is split by block of "
                        "replications, so the report is the same for any "
                        "count")
    common.add_argument("--out", default=None,
                        help="report path base (default: report)")
    common.add_argument("--format", default="json",
                        help="comma list of output formats (json,csv,tsv)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="closed-form analyses",
                       parents=[common])
    p.add_argument("what", choices=["queueing", "rebuild", "mttdl", "lse",
                                    "placement", "ctmc"])
    p.add_argument("--config")
    p.add_argument("--preset")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("code", help="erasure code enumeration and metrics",
                       parents=[common])
    p.add_argument("what", choices=["check", "metrics", "tolerance"])
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--builder")
    p.add_argument("--param", action="append",
                   help="builder parameter key=value (repeatable)")
    p.add_argument("--erasures", default=None,
                   help="all-pairs | all-triples | all-quads")
    p.add_argument("--granularity", choices=["symbol", "column"])
    p.set_defaults(fn=cmd_code)

    p = sub.add_parser("layout", help="parity placement layouts",
                       parents=[common])
    p.add_argument("what", choices=["gen", "verify"])
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--kind", choices=["bibd-10-4", "nrp", "shifted"])
    p.add_argument("--disks", type=int)
    p.add_argument("--group", type=int)
    p.add_argument("--out-layout")
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("sim", help="Monte-Carlo simulation", parents=[common])
    p.add_argument("what", choices=["reliability", "queue"])
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--reps", type=int)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
