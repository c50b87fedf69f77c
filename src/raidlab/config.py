"""Scenario configuration loading, validation, and report emission.

One self-describing JSON schema covers everything the command line runs:
disk profiles, workloads, code references, layouts, reliability parameters
and simulation settings.  The schema ships as raidlab/scenario.schema.json;
fixtures ship as data files under raidlab/fixtures and are addressable as
presets.  Report formats and paths come from the command line alone.

Loading, validation and reports need no numpy: each ``*_from_config``
imports the layer it builds from when it is called.  Nor do they need
jsonschema: ``validate_scenario`` implements the keywords the schema uses,
with jsonschema's messages, and rejects a schema that uses any other; the
test suite checks it against jsonschema.
"""

import csv
import io
import json
from dataclasses import dataclass, field
from importlib import resources

TOOL_VERSION = "0.1.0"


class SchemaError(Exception):
    """Configuration fails schema validation (exit code 2)."""


class DomainError(Exception):
    """Configuration is schema-valid but violates a model domain (exit 3)."""


# the one copy of the schema ships as package data, like the presets
SCENARIO_SCHEMA = json.loads(
    resources.files("raidlab").joinpath("scenario.schema.json").read_text())


# Annotation keywords the schema may carry; they constrain nothing.
_ANNOTATIONS = {"$schema", "title"}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _is(value, name):
    try:
        return _TYPES[name](value)
    except KeyError:
        raise ValueError("schema type %r is not supported" % (name,)) from None


def _type(types, value, path, schema):
    names = [types] if isinstance(types, str) else types
    if not any(_is(value, name) for name in names):
        yield path, "%r is not of type %s" % (value,
                                              ", ".join(map(repr, names)))


def _enum(members, value, path, schema):
    # with string members, JSON equality is ==, as jsonschema's `equal` has it
    if not all(isinstance(m, str) for m in members):
        raise ValueError("only enums of strings are supported")
    if value not in members:
        yield path, "%r is not one of %r" % (value, members)


def _bound(breaks, text):
    def check(limit, value, path, schema):
        if _is(value, "number") and breaks(value, limit):
            yield path, "%r is %s of %r" % (value, text, limit)
    return check


def _min_items(least, value, path, schema):
    if isinstance(value, list) and len(value) < least:
        yield path, "%r %s" % (value, "should be non-empty" if least == 1
                               else "is too short")


def _max_items(most, value, path, schema):
    if isinstance(value, list) and len(value) > most:
        yield path, "%r %s" % (value, "is expected to be empty" if most == 0
                               else "is too long")


def _items(sub, value, path, schema):
    if isinstance(value, list):
        for i in range(len(schema.get("prefixItems", ())), len(value)):
            yield from _errors(sub, value[i], path + (i,))


def _prefix_items(subs, value, path, schema):
    if isinstance(value, list):
        for i, (item, sub) in enumerate(zip(value, subs)):
            yield from _errors(sub, item, path + (i,))


def _required(names, value, path, schema):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                yield path, "%r is a required property" % (name,)


def _properties(subs, value, path, schema):
    if isinstance(value, dict):
        for name, sub in subs.items():
            if name in value:
                yield from _errors(sub, value[name], path + (name,))


def _additional_properties(allowed, value, path, schema):
    if allowed is not False:
        raise ValueError("only additionalProperties: false is supported")
    if isinstance(value, dict):
        known = schema.get("properties", {})
        extra = sorted((k for k in value if k not in known), key=str)
        if extra:
            yield path, ("Additional properties are not allowed (%s %s "
                         "unexpected)" % (", ".join(map(repr, extra)),
                                          "was" if len(extra) == 1
                                          else "were"))


_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "minimum": _bound(lambda v, lim: v < lim, "less than the minimum"),
    "maximum": _bound(lambda v, lim: v > lim, "greater than the maximum"),
    "exclusiveMinimum": _bound(lambda v, lim: v <= lim,
                               "less than or equal to the minimum"),
    "exclusiveMaximum": _bound(lambda v, lim: v >= lim,
                               "greater than or equal to the maximum"),
    "minItems": _min_items,
    "maxItems": _max_items,
    "items": _items,
    "prefixItems": _prefix_items,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
}


def _errors(schema, value, path):
    """(path, message) of each way value breaks schema, in the order and
    wording of jsonschema's Draft 2020-12 validator: keyword by keyword in
    the schema's order, depth first."""
    for key, arg in schema.items():
        if key in _ANNOTATIONS:
            continue
        try:
            check = _KEYWORDS[key]
        except KeyError:
            raise ValueError("schema keyword %r is not supported"
                             % (key,)) from None
        yield from check(arg, value, path, schema)


def validate_scenario(doc):
    """doc, if it satisfies the scenario schema; otherwise a SchemaError
    naming the error jsonschema's best_match would pick: among the errors
    with the shortest path, the first with the greatest path."""
    best = max(_errors(SCENARIO_SCHEMA, doc, ()),
               key=lambda err: (-len(err[0]), err[0]), default=None)
    if best is not None:
        path, message = best
        raise SchemaError("%s (at %s)" % (message, "/".join(map(str, path))))
    return doc


def load_scenario(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError("invalid JSON: %s" % err)
    return validate_scenario(doc)


def load_preset(name):
    """Bundled scenario fixtures by name (without .json)."""
    ref = resources.files("raidlab.fixtures").joinpath(name + ".json")
    if not ref.is_file():
        raise DomainError("unknown preset %r" % (name,))
    return validate_scenario(json.loads(ref.read_text()))


def model_from_config(cls, kw):
    """cls(**kw) from a scenario section: a key the model lacks (TypeError)
    or a value outside its domain (ValueError) is a DomainError."""
    try:
        return cls(**kw)
    except (TypeError, ValueError) as err:
        raise DomainError(str(err))


def profile_from_config(cfg):
    from .disk import DiskProfile, cheetah_15k5
    if cfg is None or cfg.get("preset") == "cheetah":
        return cheetah_15k5()
    if "preset" in cfg:
        raise DomainError("unknown profile preset %r" % (cfg["preset"],))
    kw = dict(cfg)
    try:
        kw["rotation_time"] = kw.pop("rotation_time_ms")
        kw["seek_char"] = tuple(kw["seek_char"])
    except KeyError as err:  # optional in the schema, for a preset section
        raise DomainError("profile needs %s" % err) from None
    if "zones" in kw:
        kw["zones"] = tuple(tuple(z) for z in kw["zones"])
    return model_from_config(DiskProfile, kw)


def workload_from_config(cfg):
    from .queueing import WorkloadSpec
    return model_from_config(WorkloadSpec, cfg)


def code_from_config(cfg):
    from . import builders, codes
    if "inline" in cfg:
        for key in ("builder", "params"):
            if key in cfg:
                raise DomainError("an inline code does not read code.%s" % key)
        try:
            return codes.from_json(cfg["inline"])
        except (KeyError, TypeError, ValueError) as err:
            raise DomainError("bad inline code: %s" % err)
    if "builder" not in cfg:
        raise DomainError("code needs a builder name or an inline spec")
    try:
        return builders.build_code(cfg["builder"], **cfg.get("params", {}))
    except (TypeError, ValueError) as err:
        raise DomainError(str(err))


def copyset_from_config(cfg):
    from .declustering import CopysetScheme
    kw = {k: v for k, v in cfg.items()
          if k in ("nodes", "replication", "scatter_width", "scheme")}
    return model_from_config(CopysetScheme, kw)


@dataclass
class Report:
    """Structured result record: rows plus provenance and replay data."""

    scenario: dict
    command: str
    seed: int = None
    rows: list = field(default_factory=list)
    version: str = TOOL_VERSION
    elapsed_s: float = 0.0

    def add(self, metric, value, unit="", ci=None, provenance="analytic"):
        lo, hi = (None, None) if ci is None else ci
        self.rows.append({
            "metric": metric,
            "value": value,
            "unit": unit,
            "ci_low": lo,
            "ci_high": hi,
            "provenance": provenance,
        })

    def to_json(self):
        doc = {
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "tool_version": self.version,
            "rows": self.rows,
            "elapsed_s": self.elapsed_s,
        }
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

    def to_csv(self, delimiter=","):
        buf = io.StringIO()
        writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["metric", "value", "unit", "ci_low", "ci_high",
                         "provenance"])
        for row in self.rows:
            writer.writerow([row["metric"], row["value"], row["unit"],
                             "" if row["ci_low"] is None else row["ci_low"],
                             "" if row["ci_high"] is None else row["ci_high"],
                             row["provenance"]])
        return buf.getvalue()


def emit(report, formats, path_base):
    """Write the report in each requested format; returns the file paths."""
    written = []
    for fmt in formats:
        path = "%s.%s" % (path_base, fmt)
        if fmt == "json":
            payload = report.to_json()
        elif fmt == "csv":
            payload = report.to_csv(",")
        elif fmt == "tsv":
            payload = report.to_csv("\t")
        else:
            raise DomainError("unknown output format %r" % (fmt,))
        with open(path, "w") as fh:
            fh.write(payload)
        written.append(path)
    return written
