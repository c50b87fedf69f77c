"""Scenario configuration loading, validation, and report emission.

One self-describing JSON schema covers everything the command line runs:
disk profiles, workloads, code references, layouts, reliability parameters
and simulation settings.  The schema ships as raidlab/scenario.schema.json;
fixtures ship as data files under raidlab/fixtures and are addressable as
presets.  Report formats and paths come from the command line alone.

Loading, validation and reports need no numpy: each ``*_from_config``
imports the layer it builds from when it is called.
"""

import csv
import functools
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


@functools.cache
def _validator():
    # jsonschema loads only when a scenario is validated; the schema itself
    # is checked by the test suite, not on every call
    import jsonschema
    return jsonschema.Draft202012Validator(SCENARIO_SCHEMA)


def validate_scenario(doc):
    from jsonschema.exceptions import best_match
    err = best_match(_validator().iter_errors(doc))
    if err is not None:
        raise SchemaError("%s (at %s)" % (err.message,
                                          "/".join(str(p) for p in err.path)))
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
