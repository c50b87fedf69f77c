"""The benchmark's tracer against the library: it binds some simulator
parameters by name (`tolerance`, `method`, `model`, `n_customers`), so a
renamed parameter fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from raidlab import builders, codes, ctmc, sim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_simulators_summarise(tracing):
    code = builders.was_lrc_6_2_2()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for method in ("auto", "loop"):
            sim.sim_generic_mttdl(6, 0.1, 1.0, tolerance=1, reps=50, seed=1,
                                  method=method)
        sim.sim_code_mttdl(code, 0.1, 1.0, reps=50, seed=2)
        sim.sim_hraid_mttdl(sim.SimConfig(nodes=2, disks_per_node=2,
                                          delta=1e-3, replications=50))
        sim.sim_queue("mg1", {"arrival_rate": 0.05,
                              "service": ("exp", 10.0)},
                      n_customers=2000, warmup=100)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics([tracer.spans()], lambda op: 1.0)
    assert metrics["sim.code_loop.reps_per_s"] > 0
    assert metrics["sim.bd.reps_per_s"] > 0
    assert metrics["sim.hraid.reps_per_s"] > 0
    assert metrics["sim.des.mg1.customers_per_s"] > 0
    assert metrics["sim.code_loop.predicate_calls"] == 0
    # uninstall puts every function back
    assert not hasattr(sim.sim_code_mttdl, "__wrapped__")
    assert not hasattr(codes.recoverable_sets, "__wrapped__")
    assert not hasattr(ctmc.build_ctmc, "__wrapped__")
