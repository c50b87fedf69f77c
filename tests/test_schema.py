"""validate_scenario against jsonschema, the oracle it replaces.

raidlab checks scenarios with its own implementation of the keywords that
scenario.schema.json uses.  On every document it must accept exactly what
jsonschema's Draft 2020-12 validator accepts, and otherwise raise the text
of jsonschema's best_match error, character for character.
"""

import copy
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from raidlab import config
from raidlab.config import SCENARIO_SCHEMA, SchemaError, validate_scenario

ORACLE = Draft202012Validator(SCENARIO_SCHEMA)


def oracle(doc):
    """jsonschema's verdict: None, or the SchemaError text for doc."""
    err = best_match(ORACLE.iter_errors(doc))
    if err is None:
        return None
    return "%s (at %s)" % (err.message, "/".join(str(p) for p in err.path))


def verdict(doc):
    try:
        validate_scenario(doc)
    except SchemaError as err:
        return str(err)
    return None


def subschemas(schema):
    """schema and every schema nested in it."""
    yield schema
    nested = list(schema.get("properties", {}).values())
    nested += schema.get("prefixItems", [])
    nested += [schema["items"]] if "items" in schema else []
    for sub in nested:
        yield from subschemas(sub)


FIXTURES = [json.loads(p.read_text())
            for p in sorted(resources.files("raidlab.fixtures").iterdir(),
                            key=lambda p: p.name)
            if p.name.endswith(".json")]
# no fixture has a ctmc section
CTMC = {"version": "1",
        "ctmc": {"transitions": [["ok", "deg", 0.3], ["deg", "ok", 2],
                                 [0, "lost", 0.2]],
                 "absorbing": ["lost"], "initial": {"ok": 1.0},
                 "times": [1.0, 10]}}
BASES = FIXTURES + [CTMC]

# every name the schema knows, so that added keys reach its subschemas
NAMES = sorted({name for sub in subschemas(SCENARIO_SCHEMA)
                for name in sub.get("properties", {})}
               | {m for sub in subschemas(SCENARIO_SCHEMA)
                  for m in sub.get("enum", [])}
               | {"bogus", "a"})

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, 1e300, float("inf"),
                       float("nan")])
    | st.sampled_from(NAMES),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES), kids, max_size=3),
    max_leaves=6)


def nodes(value, path=()):
    """The path of every value in a document, the document's own first."""
    yield path
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from nodes(sub, path + (key,))
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            yield from nodes(sub, path + (i,))


def mutate(data, doc):
    """doc with one value swapped, one key or item deleted, or one added."""
    path = data.draw(st.sampled_from(list(nodes(doc))))
    action = data.draw(st.sampled_from(["swap", "delete", "add"]))
    if not path:
        return data.draw(JSON) if action == "swap" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    target = parent[path[-1]]
    if action == "swap":
        parent[path[-1]] = data.draw(JSON)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(target, dict):
        target[data.draw(st.sampled_from(NAMES))] = data.draw(JSON)
    elif isinstance(target, list):
        target.append(data.draw(JSON))
    return doc


class TestAgainstJsonschema:
    @pytest.mark.parametrize("doc", BASES)
    def test_fixtures_are_valid(self, doc):
        assert oracle(doc) is None
        assert validate_scenario(doc) is doc

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_mutated_fixtures(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(BASES)))
        for _ in range(data.draw(st.integers(1, 3))):
            doc = mutate(data, doc)
        assert verdict(doc) == oracle(doc)

    @given(JSON)
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_documents(self, doc):
        assert verdict(doc) == oracle(doc)

    @pytest.mark.parametrize("doc,message", [
        ({"version": 1}, "1 is not of type 'string' (at version)"),
        ([], "[] is not of type 'object' (at )"),
        ({"profile": {"cylinders": True}},
         "True is not of type 'integer' (at profile/cylinders)"),
        ({"profile": {"cylinders": 2.0, "seek_char": [1, 0.5]}}, None),
        ({"ctmc": {"transitions": [[["a"], "b", 0.5]], "absorbing": ["b"]}},
         "['a'] is not of type 'string', 'integer' "
         "(at ctmc/transitions/0/0)"),
        ({"ctmc": {"transitions": [["a", 1.5, 0.5]], "absorbing": ["b"]}},
         "1.5 is not of type 'string', 'integer' (at ctmc/transitions/0/1)"),
        ({"ctmc": {"transitions": [["a", "b", "0.5"]], "absorbing": ["b"]}},
         "'0.5' is not of type 'number' (at ctmc/transitions/0/2)"),
        ({"ctmc": {"transitions": [["a", "b"]], "absorbing": []}},
         "['a', 'b'] is too short (at ctmc/transitions/0)"),
        ({"ctmc": {"transitions": [], "absorbing": [None]}},
         "None is not of type 'string', 'integer' (at ctmc/absorbing/0)"),
        ({"ctmc": {"transitions": [], "absorbing": [], "times": [1, "x"]}},
         "'x' is not of type 'number' (at ctmc/times/1)"),
        ({"code": {"granularity": "row"}},
         "'row' is not one of ['symbol', 'column'] (at code/granularity)"),
        ({"code": {"granularity": 1}},
         "1 is not one of ['symbol', 'column'] (at code/granularity)"),
        ({"profile": {"cylinders": 0}},
         "0 is less than the minimum of 1 (at profile/cylinders)"),
        ({"profile": {"no_move_prob": 1.5}},
         "1.5 is greater than the maximum of 1 (at profile/no_move_prob)"),
        ({"profile": {"rotation_time_ms": 0}},
         "0 is less than or equal to the minimum of 0 "
         "(at profile/rotation_time_ms)"),
        ({"sim": {"level": 1}},
         "1 is greater than or equal to the maximum of 1 (at sim/level)"),
        ({"sim": {"level": "high"}},
         "'high' is not of type 'number' (at sim/level)"),
        ({"profile": {"seek_char": [1]}},
         "[1] is too short (at profile/seek_char)"),
        ({"profile": {"seek_char": [1, 2, 3, 4]}},
         "[1, 2, 3, 4] is too long (at profile/seek_char)"),
        ({"profile": {"zones": [[1, 2], [3, "x"]]}},
         "'x' is not of type 'integer' (at profile/zones/1/1)"),
        ({"workload": {}},
         "'arrival_rate' is a required property (at workload)"),
        ({"workload": {"arrival_rate": 1, "x": 1, "a": 2}},
         "Additional properties are not allowed ('a', 'x' were unexpected) "
         "(at workload)"),
        # a shallower error beats a deeper one, of two siblings the greater
        # path wins, and of two at one path the first in the schema's
        # keyword order
        ({"workload": {"arrival_rate": "x"}, "bogus": 1},
         "Additional properties are not allowed ('bogus' was unexpected) "
         "(at )"),
        ({"layout": {"kind": "grid", "disks": 1}},
         "'grid' is not one of ['bibd-10-4', 'nrp', 'shifted'] "
         "(at layout/kind)"),
        ({"copyset": {"nodes": 1}},
         "'replication' is a required property (at copyset)"),
        ({"ctmc": {"transitions": [], "bogus": 1}},
         "Additional properties are not allowed ('bogus' was unexpected) "
         "(at ctmc)"),
    ])
    def test_each_keyword(self, doc, message):
        assert oracle(doc) == message
        assert verdict(doc) == message


class TestSupportedKeywords:
    def test_schema_uses_only_supported_keywords(self):
        supported = set(config._KEYWORDS) | config._ANNOTATIONS
        for sub in subschemas(SCENARIO_SCHEMA):
            assert set(sub) <= supported, sub
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) \
                <= set(config._TYPES)
            assert all(isinstance(m, str) for m in sub.get("enum", []))
            assert sub.get("additionalProperties", False) is False

    @pytest.mark.parametrize("schema", [
        {"pattern": "^a"},
        {"type": "decimal"},
        {"enum": ["a", 1]},
        {"additionalProperties": {"type": "string"}},
        {"properties": {"a": {"const": 1}}},
    ], ids=["keyword", "type", "enum", "additional", "nested"])
    def test_other_keywords_raise(self, monkeypatch, schema):
        monkeypatch.setattr(config, "SCENARIO_SCHEMA", schema)
        with pytest.raises(ValueError, match="supported"):
            validate_scenario({"a": "b"})
