"""Spans around calls into raidlab's layers, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id).  The
wrapper is also written over every alias of the function that another
raidlab module made with ``from .x import f``, so internal calls are seen
too: ``codes`` reaching ``gf.rank``, ``rebuild`` calling ``mg1_wait``,
``sim_code_mttdl`` importing ``is_recoverable`` at call time.  Two private
predicates, ``codes._solvable`` and ``codes._base_view_recoverable``, get a
plain counter instead of a span: they decide one erasure pattern each and
run hundreds of thousands of times in an enumeration.

Spans stay in memory as parallel arrays and are summarised into per-layer
metrics by ``layer_metrics``; ``dump`` writes them out.
"""

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "config", "builders", "gf", "codes", "sim", "ctmc",
          "queueing", "rebuild", "reliability", "declustering")
PATTERN_PREDICATES = ("_solvable", "_base_view_recoverable")
ENUMERATORS = {
    "codes.classify_array_code": "codes.classify_s",
    "codes.recoverable_fraction": "codes.fraction_s",
    "codes.erasure_tolerance": "codes.tolerance_s",
    "codes.loss_coefficients": "codes.loss_coefficients_s",
    "codes.repair_metrics": "codes.repair_metrics_s",
}
# spans that test equation subsets rather than erasure patterns
PLANNERS = ("codes.repair_plan", "codes.verify_plan")
DES_MODELS = ("mg1", "mg1_priority", "fj", "vsm", "pcm")

# every per-layer metric the traced run reports, with its unit
PER_LAYER = (
    [("cli.interp_s", "s"), ("cli.import_s", "s"), ("cli.compute_s", "s"),
     ("cli.overhead_s", "s"), ("config.validate_s", "s"),
     ("config.emit_s", "s"), ("builders.build_s", "s"),
     ("gf.rank.calls", "count"), ("gf.rank.self_s", "s"),
     ("gf.rank.us_per_call", "us"), ("codes.patterns", "count"),
     ("codes.rank_calls_per_pattern", "ratio")]
    + [(name, "s") for name in ENUMERATORS.values()]
    + [("codes.is_recoverable.calls", "count"),
       ("codes.is_recoverable.us_per_call", "us"),
       ("sim.hraid.reps_per_s", "1/s"), ("sim.bd.reps_per_s", "1/s"),
       ("sim.code_loop.reps_per_s", "1/s"),
       ("sim.code_loop.predicate_calls", "count"),
       ("sim.copyset.reps_per_s", "1/s"), ("sim.replications", "count")]
    + [("sim.des.%s.customers_per_s" % m, "1/s") for m in DES_MODELS]
    + [("sim.des.customers", "count"), ("ctmc.states", "count"),
       ("ctmc.build_s", "s"), ("ctmc.solve_s", "s"),
       ("ctmc.uniformization_s", "s"), ("queueing.self_s", "s"),
       ("rebuild.self_s", "s"), ("reliability.self_s", "s"),
       ("declustering.self_s", "s"), ("trace.overhead_s", "s")])


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note(name, fn, args, kwargs, result):
    """Exact work counts carried by a span, taken from arguments or result."""
    if name in ("sim.sim_hraid_mttdl", "sim.sim_code_mttdl",
                "sim.sim_copyset_loss"):
        return {"reps": result.replications}
    if name == "sim.sim_generic_mttdl":
        a = _bound_args(fn, args, kwargs)
        fast = a["tolerance"] is not None and a["method"] in ("auto", "fast")
        return {"reps": result.replications, "bd": fast}
    if name == "sim.sim_queue":
        a = _bound_args(fn, args, kwargs)
        return {"model": a["model"], "customers": a["n_customers"]}
    if name == "ctmc.build_ctmc":
        return {"states": len(result.states)}
    return None


class Tracer:
    """Span recorder for one process: create, ``install``, run code,
    ``uninstall``."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.notes = {}
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, name, fn):
        nid = self._name_id(name)
        stack = self._stack
        noted = name.startswith(("sim.sim_", "ctmc.build_ctmc"))

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if noted:
                self.notes[idx] = _note(name, fn, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _counter(self, name, fn):
        stack = self._stack
        counts = self.counts
        names = self.name

        def wrapper(*args, **kwargs):
            parent = self.names[names[stack[-1]]] if stack else ""
            counts[name, parent, self.op_id] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap the layer functions and every alias of them in raidlab."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get("raidlab." + layer)
            if mod is None:
                continue  # a layer the process never imported runs no code
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or \
                        obj.__module__ != mod.__name__:
                    continue
                if layer == "codes" and attr in PATTERN_PREDICATES:
                    wrappers[id(obj)] = (obj, self._counter(attr, obj))
                elif not attr.startswith("_") and \
                        not inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = (obj, self._span(
                        "%s.%s" % (layer, attr), obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "raidlab" or
                                   modname.startswith("raidlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched = []

    def spans(self):
        """Spans as plain lists: name, start, end, parent index, op id."""
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "notes": {str(k): v for k, v in self.notes.items() if v},
                "counts": [[a, b, op, n]
                           for (a, b, op), n in self.counts.items()]}

    def dump(self, path, extra=None):
        doc = self.spans()
        doc["extra"] = extra or {}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def layer_metrics(docs, weight):
    """Sum spans of several ``Tracer.spans()`` documents into per-layer
    metrics.  ``weight(op_id)`` scales each span, so that set-up spans
    (op -1) count once while spans of repeated passes are averaged."""
    tot = Counter()
    dur = Counter()
    self_time = Counter()
    for doc in docs:
        names = doc["names"]
        start, end, parent = doc["start"], doc["end"], doc["parent"]
        op, notes = doc["op"], doc["notes"]
        span_name = [names[i] for i in doc["name"]]
        length = [e - s for s, e in zip(start, end)]
        child_time = [0.0] * len(length)
        for i, p in enumerate(parent):
            if p >= 0:
                child_time[p] += length[i]
        for i, name in enumerate(span_name):
            w = weight(op[i])
            layer = name.split(".", 1)[0]
            self_time[layer] += w * (length[i] - child_time[i])
            p = parent[i]
            pname = span_name[p] if p >= 0 else ""
            if name == "gf.rank":
                tot["rank.calls"] += w
                self_time["gf.rank"] += w * (length[i] - child_time[i])
                if pname not in PLANNERS:
                    tot["rank.pattern_calls"] += w
            elif name == "codes.is_recoverable":
                tot["is_recoverable.calls"] += w
                dur["is_recoverable"] += w * length[i]
                if _has_ancestor(i, parent, span_name, "sim.sim_code_mttdl"):
                    tot["code_loop.predicate_calls"] += w
            elif name in ENUMERATORS:
                dur[ENUMERATORS[name]] += w * length[i]
            elif layer == "builders" and not pname.startswith("builders."):
                dur["builders.build_s"] += w * length[i]
            elif name == "config.emit":
                dur["config.emit_s"] += w * length[i]
            elif name in ("ctmc.build_ctmc", "ctmc.mean_time_to_absorption",
                          "ctmc.transient_uniformization"):
                dur[name] += w * length[i]
            note = notes.get(str(i))
            if note:
                _add_note(name, note, w, length[i], tot, dur)
        for _, pname, op_id, n in doc["counts"]:
            if pname not in PLANNERS:
                tot["patterns"] += n * weight(op_id)
    m = {
        "builders.build_s": dur["builders.build_s"],
        "config.emit_s": dur["config.emit_s"],
        "gf.rank.calls": round(tot["rank.calls"]),
        "gf.rank.self_s": self_time["gf.rank"],
        "gf.rank.us_per_call": _ratio(1e6 * self_time["gf.rank"],
                                      tot["rank.calls"]),
        "codes.patterns": round(tot["patterns"]),
        "codes.rank_calls_per_pattern": _ratio(tot["rank.pattern_calls"],
                                               tot["patterns"]),
        "codes.is_recoverable.calls": round(tot["is_recoverable.calls"]),
        "codes.is_recoverable.us_per_call": _ratio(
            1e6 * dur["is_recoverable"], tot["is_recoverable.calls"]),
        "sim.hraid.reps_per_s": _ratio(tot["hraid.reps"], dur["hraid"]),
        "sim.bd.reps_per_s": _ratio(tot["bd.reps"], dur["bd"]),
        "sim.code_loop.reps_per_s": _ratio(tot["code_loop.reps"],
                                           dur["code_loop"]),
        "sim.code_loop.predicate_calls": round(
            tot["code_loop.predicate_calls"]),
        "sim.copyset.reps_per_s": _ratio(tot["copyset.reps"], dur["copyset"]),
        "sim.replications": round(tot["reps"]),
        "sim.des.customers": round(tot["customers"]),
        "ctmc.states": round(tot["states"]),
        "ctmc.build_s": dur["ctmc.build_ctmc"],
        "ctmc.solve_s": dur["ctmc.mean_time_to_absorption"],
        "ctmc.uniformization_s": dur["ctmc.transient_uniformization"],
    }
    for model in DES_MODELS:
        m["sim.des.%s.customers_per_s" % model] = _ratio(
            tot["des.%s.customers" % model], dur["des." + model])
    for name in ENUMERATORS.values():
        m[name] = dur[name]
    # gf.rank self time is part of the gf layer; the oracle-side layers are
    # reported whole
    for layer in ("queueing", "rebuild", "reliability", "declustering"):
        m[layer + ".self_s"] = self_time[layer]
    return m


def _has_ancestor(i, parent, span_name, name):
    p = parent[i]
    while p >= 0:
        if span_name[p] == name:
            return True
        p = parent[p]
    return False


def _add_note(name, note, w, length, tot, dur):
    if "states" in note:
        tot["states"] += w * note["states"]
        return
    if "customers" in note:
        key = "des." + note["model"]
        tot[key + ".customers"] += w * note["customers"]
        tot["customers"] += w * note["customers"]
        dur[key] += w * length
        return
    kind = {"sim.sim_hraid_mttdl": "hraid", "sim.sim_code_mttdl": "code_loop",
            "sim.sim_copyset_loss": "copyset"}.get(name)
    if name == "sim.sim_generic_mttdl":
        if not note["bd"]:
            return  # the event loop under sim_code_mttdl, counted there
        kind = "bd"
    tot[kind + ".reps"] += w * note["reps"]
    tot["reps"] += w * note["reps"]
    dur[kind] += w * length


def _ratio(num, den):
    return num / den if den else 0.0
