"""One workload process of the benchmark.

    python3 perfbench/child.py --workload NAME --seed N --deadline EPOCH
        --trace 0|1 [--setup-only]

Imports raidlab from the checkout's ``src``, builds the workload's inputs,
prints ``READY`` (the parent times set-up up to that line), then runs the
workload as a closed loop with one client until the wall-clock ``deadline``
and prints one JSON line with every sample.  With ``--trace 1`` it
alternates untraced and traced passes and adds per-layer metrics.
"""

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Enough op samples that the tail percentile has ten samples beyond it.
MIN_SAMPLES = 21


def spawn(cmd, cwd, env=None):
    """Run a process to its exit; returns (wall seconds from spawn to exit,
    exit code, peak RSS in MB, stderr text)."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, text


def attempt(fn):
    """Run one op; an exception is that op's failure, reported, not fatal."""
    try:
        return fn()
    except Exception as err:  # a failing op must not end the run
        return "%s: %s" % (type(err).__name__, err)


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, name, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append("%s: %s" % (name, problem))


def cli_env():
    env = dict(os.environ)
    env.pop("RAIDLAB_SEED", None)  # every seed comes from the workload seed
    env["PYTHONPATH"] = SRC
    return env


def probe_interp(cwd):
    """Median wall time of a bare interpreter start, spawn to exit."""
    return statistics.median(spawn([sys.executable, "-c", "pass"], cwd)[0]
                             for _ in range(5))


def probe_import(cwd):
    """Median in-process time of a fresh ``import raidlab.cli``."""
    code = ("import sys, time; sys.path.insert(0, %r);"
            " t = time.perf_counter(); import raidlab.cli;"
            " sys.stderr.write(repr(time.perf_counter() - t))" % SRC)
    return statistics.median(float(spawn([sys.executable, "-c", code], cwd)[3])
                             for _ in range(3))


def probe_config():
    """Median time to load and validate every bundled fixture."""
    from importlib import resources
    import raidlab.config
    names = sorted(p.name[:-5] for p in
                   resources.files("raidlab.fixtures").iterdir()
                   if p.name.endswith(".json"))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for name in names:
            raidlab.config.load_preset(name)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# in-process workloads: code-enum and validate


def run_in_process(ops, deadline, tracer):
    """Whole passes over the ops until the next pass would overrun the
    deadline; with a tracer, passes alternate untraced and traced."""
    tally = Tally()
    samples = {op.name: [] for op in ops}
    passes = {False: [], True: []}
    traced = False
    while True:
        if traced:
            tracer.install()
        t_pass = perf_counter()
        for i, op in enumerate(ops):
            if traced:
                tracer.op_id = i
            t0 = perf_counter()
            problem = attempt(op.run)
            dt = perf_counter() - t0
            if not traced:
                samples[op.name].append(dt)
            tally.record(op.name, problem)
        passes[traced].append(perf_counter() - t_pass)
        if traced:
            tracer.uninstall()
        enough = len(passes[False]) * len(ops) >= MIN_SAMPLES and \
            (tracer is None or passes[True])
        if enough and time.time() + passes[traced][-1] > deadline:
            break
        traced = tracer is not None and not traced
    return tally, samples, passes


def in_process_result(ops, deadline, tracer, workdir):
    tally, samples, passes = run_in_process(ops, deadline, tracer)
    result = {"samples": samples}
    if tracer is not None:
        import tracing
        n_traced = len(passes[True])
        layers = tracing.layer_metrics(
            [tracer.spans()], lambda op: 1.0 if op < 0 else 1.0 / n_traced)
        layers.update({
            "cli.interp_s": probe_interp(workdir),
            "cli.import_s": probe_import(workdir),
            "cli.compute_s": 0.0,
            "cli.overhead_s": 0.0,
            "config.validate_s": probe_config(),
            "trace.overhead_s": statistics.median(passes[True]) -
            statistics.median(passes[False]),
        })
        result["layers"] = layers
        result["traced_passes"] = passes[True]
        result["spans"] = [tracer.spans()]
    return tally, result


# ---------------------------------------------------------------------------
# cli-readme: one fresh CLI process per command


def run_cli(commands, deadline, trace, workdir):
    """Cycle through the command list, one process at a time, until the
    next command would overrun the deadline (at least one whole pass).
    With ``trace``, each command runs untraced and then under the tracing
    shim, for exactly one pass."""
    env = cli_env()
    tally = Tally()
    samples = {name: [] for name, _, _ in commands}
    rss, elapsed, span_docs, traced_wall, imports = [], [], [], [], []
    reports = {}
    count = 0
    while True:
        name, argv, check = commands[count % len(commands)]
        if count % len(commands) == 0:
            reports = {}
        out = os.path.join(workdir, name)
        wall, code, mb, err = spawn(
            [sys.executable, "-m", "raidlab.cli"] + argv + ["--out", out],
            workdir, env)
        samples[name].append(wall)
        rss.append(mb)
        tally.record(name, _check_cli(name, code, err, out, check, reports,
                                      elapsed))
        if trace:
            span_file = out + ".spans.json.gz"
            wall, code, _, err = spawn(
                [sys.executable, os.path.join(HERE, "cli_shim.py"), span_file]
                + argv + ["--out", out], workdir, env)
            traced_wall.append(wall)
            tally.record(name + "[traced]",
                         _check_cli(name, code, err, out, check, reports, []))
            doc = _read_spans(span_file)
            if doc is not None:
                span_docs.append(doc)
                imports.append(doc["extra"]["import_s"])
        count += 1
        if count >= len(commands) and (trace or time.time() + wall > deadline):
            break
    result = {"samples": samples, "peak_rss_mb": max(rss)}
    if trace:
        import tracing
        layers = tracing.layer_metrics(span_docs, lambda op: 1.0)
        interp = probe_interp(workdir)
        untraced_pass = sum(v[0] for v in samples.values())
        import_s = statistics.median(imports) if imports else 0.0
        compute_s = sum(elapsed)
        layers.update({
            "cli.interp_s": interp,
            "cli.import_s": import_s,
            "cli.compute_s": compute_s,
            "cli.overhead_s": untraced_pass - compute_s -
            len(commands) * (interp + import_s),
            "config.validate_s": probe_config(),
            "trace.overhead_s": sum(traced_wall) - untraced_pass,
        })
        result["layers"] = layers
        result["spans"] = span_docs
    return tally, result


def _read_spans(path):
    try:
        with gzip.open(path, "rt") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _check_cli(name, code, err, out, check, reports, elapsed):
    if code != 0:
        return "exit code %d: %s" % (code, err.strip()[-300:])
    try:
        with open(out + ".json") as fh:
            text = fh.read()
        doc = json.loads(text)
    except (OSError, ValueError) as e:
        return "unreadable report: %s" % e
    reports[name] = text
    elapsed.append(doc["elapsed_s"])
    return check(doc, reports)


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import raidlab
    tracer = None
    if args.workload == "cli-readme":
        import raidlab.cli  # what every command loads first
        import workloads
        commands = workloads.cli_commands(args.seed)
    else:
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()  # builders run during set-up, as op -1
        import workloads
        if args.workload == "code-enum":
            inputs = workloads.code_enum_inputs(raidlab.builders)
            ops = workloads.code_enum_ops(raidlab, inputs, args.seed)
        else:
            inputs = workloads.validate_inputs(raidlab)
            ops = workloads.validate_ops(raidlab, inputs, args.seed)
        if tracer is not None:
            tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(workdir)
        return 0
    try:
        if args.workload == "cli-readme":
            tally, result = run_cli(commands, args.deadline, args.trace,
                                    workdir)
        else:
            tally, result = in_process_result(ops, args.deadline, tracer,
                                              workdir)
    finally:
        shutil.rmtree(workdir)
    spans = result.pop("spans", None)
    if spans is not None:
        path = os.path.join(OUT, "spans-%s-seed%d.json.gz"
                            % (args.workload, args.seed))
        with gzip.open(path, "wt") as fh:
            json.dump(spans, fh)
    import numpy
    import scipy
    result.update({
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures,
        "env": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
