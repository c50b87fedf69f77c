"""Every builder's output, pinned: the JSON form of each code, plus its
symbol order, column-map key order and base view, as the builders produced
them when the fixture was written.

Regenerate `builder_codes.json` only for an intended change of a builder's
output:  PYTHONPATH=src python tests/test_builder_codes.py
"""

import functools
import json
from pathlib import Path

import pytest

from raidlab import builders, codes, gf

FIXTURE = Path(__file__).parent / "builder_codes.json"
FIELDS = {1: gf.GF2, 4: gf.GF16, 8: gf.GF256}

CALLS = (
    [("raid5", dict(n=n)) for n in range(3, 11)]
    + [("spc", dict(n_data=n)) for n in range(1, 6)]
    + [("raid4k", dict(n=n, k=k)) for n, k in
       ((6, 2), (8, 2), (9, 4), (10, 4), (11, 3))]
    + [("raid4k", dict(n=2, k=1, field=1)),
       ("raid4k", dict(n=17, k=2, field=4))]
    + [("rdp", dict(p=p)) for p in (3, 5, 7, 11)]
    + [("xcode", dict(n=n)) for n in (5, 7, 11)]
    + [("hvpc", dict(k1=k1, k2=k2)) for k1 in range(1, 5)
       for k2 in range(1, 6)]
    + [("azure_lrc", dict(n=n, k=k, r=r)) for n, k, r in
       ((10, 6, 3), (16, 12, 4), (8, 4, 2))]
    + [("pmds_fig", dict(variant=v)) for v in ("pmds", "sd")]
    + [(name, {}) for name in (
        "rm2", "pyramid_8_2_2", "pyramid_12_2_2", "xorbas_16_10_5",
        "was_lrc_6_2_2", "lsi", "sspiral", "mds42", "resar_small",
        "parity2d", "parity3d")]
    + [("xcode_with_spc", dict(p=p)) for p in (5, 7)]
    + [("mirrored_org", dict(org=org, n=n)) for org in ("bm", "grd", "cd", "id")
       for n in (4, 6, 8)]
    + [("mirrored_org", dict(org="cd", n=5)),
       ("mirrored_org", dict(org="id", n=6, clusters=3))]
)


def _label(name, params):
    return "%s(%s)" % (name, ",".join("%s=%s" % kv for kv in params.items()))


def _record(name, params):
    """The pinned form of one builder call, through a JSON round trip."""
    kwargs = dict(params)
    if "field" in kwargs:
        kwargs["field"] = FIELDS[kwargs["field"]]
    code = getattr(builders, name)(**kwargs)
    doc = codes.to_json(code)
    doc["symbols"] = list(code.symbols)
    doc["column_order"] = list(code.column_map)
    doc["base_view"] = doc.pop("base_view")  # pinned as the last key
    return json.loads(json.dumps(doc))


@functools.cache
def _pinned():
    return json.loads(FIXTURE.read_text())


def test_every_builder_is_covered():
    assert set(builders.BUILDERS) <= {name for name, _ in CALLS}


@pytest.mark.parametrize("name,params", CALLS,
                         ids=[_label(*c) for c in CALLS])
def test_builder_output_matches_pinned(name, params):
    want = _pinned()[_label(name, params)]
    got = _record(name, params)
    assert got == want
    # dict equality ignores order; the symbol and key orders are pinned too
    assert json.dumps(got) == json.dumps(want)


if __name__ == "__main__":
    # one call per line
    FIXTURE.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(_label(*c)), json.dumps(_record(*c)))
        for c in CALLS))
