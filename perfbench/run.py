"""raidlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):

    cli-readme  the README commands and three presets, each a fresh
                ``python -m raidlab.cli`` process
    code-enum   erasure-code enumerators, in process
    validate    simulators against their exact oracles, in process

Every run spawns fresh workload processes (``child.py``): one that only
sets up, the one that runs the closed loop, and another that only sets up;
the last one ends about when ``--seconds`` have passed since the start of
the run.  Each op's output is checked against a pinned
answer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it name every metric with its unit, the seed and the
environment; the same record is written under ``.perfbench/results``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("cli-readme", "code-enum", "validate")

# end-to-end metrics and their units
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "mix_s": "s"}
# the names these metrics have in the workload's own terms; on cli-readme
# an op is one command
ALIASES = {"code-enum": {"mix_s": "enum_s"},
           "validate": {"mix_s": "validate_s"},
           "cli-readme": {"op_p50_s": "cli_p50_s", "op_tail_s": "cli_tail_s"}}


def start_child(workload, seed, deadline, trace, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--deadline", repr(deadline), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.stdout.close()
        proc.wait()
        raise RuntimeError("workload process failed during set-up")
    return proc, setup


def finish_child(proc):
    """Read the child's result line, reap it; returns (result, RSS MB)."""
    lines = proc.stdout.read().splitlines()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not lines:
        raise RuntimeError("workload process exited with %d" % proc.returncode)
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def finish_setup_only(proc):
    proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("set-up process exited with %d" % proc.returncode)


def _alias(aliases, name):
    return " (%s)" % aliases[name] if name in aliases else ""


def tail(values):
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups, result, rss):
    """The end-to-end metrics, plus op latency and sample counts."""
    samples = [t for ts in result["samples"].values() for t in ts]
    tail_value, tail_pct = tail(samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result.get("peak_rss_mb", rss),
        "mix_s": sum(statistics.mean(ts)
                     for ts in result["samples"].values()),
    }
    detail = {"op_samples": len(samples),
              "op_p50_s": statistics.median(samples), "op_tail_s": tail_value,
              "op_tail_percentile": tail_pct, "setup_samples": setups,
              "op_samples_s": result["samples"]}
    return metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "raidlab", "__init__.py")):
        print("perfbench: no raidlab sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    # Set-up is timed three times: a set-up-only process before the loop,
    # the loop's own process, and one more after it, so that the samples
    # spread over the run as the machine's speed drifts.
    deadline = time.time() + args.seconds

    def setup_only():
        proc, setup = start_child(args.workload, args.seed, deadline,
                                  args.trace, setup_only=True)
        finish_setup_only(proc)
        return setup

    setups = [setup_only()]
    proc, setup = start_child(args.workload, args.seed,
                              deadline - 1.5 * setups[0], args.trace,
                              setup_only=False)
    setups.append(setup)
    result, rss = finish_child(proc)
    setups.append(setup_only())

    import tracing
    if args.trace:
        units = dict(tracing.PER_LAYER)
        metrics = {name: (int(result["layers"][name]) if unit == "count"
                          else float(result["layers"][name]))
                   for name, unit in units.items()}
        detail = {"traced_passes": result.get("traced_passes")}
    else:
        units = END_TO_END
        metrics, detail = end_to_end(setups, result, rss)
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": result["env"],
        "error_rate": failed / attempted, "failures": result["failures"],
        "metrics": metrics, **detail,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    aliases = ALIASES.get(args.workload, {})
    print("workload %s  seed %d  trace %d  env %s" % (
        args.workload, args.seed, args.trace, json.dumps(result["env"])))
    for name, value in metrics.items():
        print("  %-36s %14.6g %s%s" % (name, value, units[name],
                                       _alias(aliases, name)))
    print("  %-36s %14.6g ratio  (%d of %d ops failed)" % (
        "error_rate", failed / attempted, failed, attempted))
    if not args.trace:
        print("  %-36s %14.6g s      (not gated)%s" % (
            "op_p50_s", detail["op_p50_s"], _alias(aliases, "op_p50_s")))
        print("  %-36s %14.6g s      (not gated; p%.1f of %d op samples)%s" % (
            "op_tail_s", detail["op_tail_s"], detail["op_tail_percentile"],
            detail["op_samples"], _alias(aliases, "op_tail_s")))
    for failure in result["failures"]:
        print("  FAILED %s" % failure)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as err:  # a workload process failed: no result
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
