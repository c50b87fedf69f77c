"""Repair plans, pinned and batched.

`repair_plans.json` holds every single and pair plan at symbol granularity,
as the one-subset-at-a-time search planned them: in full for xorbas (exact
and greedy) and azure_lrc(10,6,3), and as one SHA-256 digest of the
canonical JSON listing for one instance of every builder.  The rest checks
the batched planner, `codes._plans`: its chunking, its kernel calls and its
edge cases.

Regenerate `repair_plans.json` only for an intended change of the plans:
PYTHONPATH=src python tests/test_repair_plans.py
"""

import functools
import hashlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from raidlab import builders, codes, gf
from raidlab.codes import (BudgetExceeded, UnrecoverableError,
                           repair_metrics, repair_plan)

FIXTURE = Path(__file__).parent / "repair_plans.json"

# the listings pinned in full: (key, builder call, exact_limit)
LISTINGS = [
    ("azure_lrc_10_6_3", ("azure_lrc", dict(n=10, k=6, r=3)), 1 << 16),
    ("xorbas_16_10_5", ("xorbas_16_10_5", {}), 1 << 16),
    ("xorbas_16_10_5_greedy", ("xorbas_16_10_5", {}), 1),
]
# one instance of every builder, pinned by digest
INSTANCES = [
    ("azure_lrc", dict(n=10, k=6, r=3)), ("hvpc", dict(k1=4, k2=4)),
    ("lsi", {}), ("mds42", {}), ("mirrored_org", dict(org="cd", n=6)),
    ("parity2d", {}), ("parity3d", {}), ("pmds_fig", dict(variant="pmds")),
    ("pyramid_12_2_2", {}), ("pyramid_8_2_2", {}),
    ("raid4k", dict(n=11, k=3)), ("raid5", dict(n=6)), ("rdp", dict(p=5)),
    ("resar_small", {}), ("rm2", {}), ("sspiral", {}), ("was_lrc_6_2_2", {}),
    ("xcode", dict(n=7)), ("xcode_with_spc", dict(p=5)),
    ("xorbas_16_10_5", {}),
]


def _label(name, params):
    return "%s(%s)" % (name, ",".join("%s=%s" % kv for kv in params.items()))


def _build(name, params):
    return getattr(builders, name)(**params)


def listing(code, plans):
    """The `plans` of every single and pair, in `_pair_masks` order, as a
    listing keyed by the pattern's symbols: [reads, equations_used,
    optimal], or "unrecoverable" for None."""
    keys = [" ".join(p) for f in (1, 2) for p in combinations(code.symbols, f)]
    return {k: "unrecoverable" if p is None else
            [list(p.reads), list(p.equations_used), p.optimal]
            for k, p in zip(keys, plans)}


def _one_by_one(code, exact_limit=1 << 16):
    """The plan of every single and pair by `repair_plan`, None where it
    raises UnrecoverableError."""
    plans = []
    for f in (1, 2):
        for p in combinations(code.symbols, f):
            try:
                plans.append(repair_plan(code, list(p),
                                         exact_limit=exact_limit))
            except UnrecoverableError:
                plans.append(None)
    return plans


def digest(plans):
    """SHA-256 of a listing's canonical JSON."""
    text = json.dumps(plans, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def _pinned():
    return json.loads(FIXTURE.read_text())


def _pair_masks(code):
    return [sum(1 << i for i in c)
            for f in (1, 2) for c in combinations(range(code.n), f)]


def _record(monkeypatch, kernel="eliminate"):
    """The stack shape of every `gf.<kernel>` call from now on."""
    shapes, real = [], getattr(gf, kernel)

    def wrapped(field, m, *args):
        shapes.append(m.shape)
        return real(field, m, *args)

    monkeypatch.setattr(gf, kernel, wrapped)
    return shapes


def test_every_builder_is_pinned():
    assert sorted(name for name, _ in INSTANCES) == sorted(builders.BUILDERS)


@pytest.mark.parametrize("name,params", INSTANCES,
                         ids=[_label(*c) for c in INSTANCES])
def test_plans_match_pinned_digest(name, params):
    # in one batch, as repair_metrics plans them, and one by one
    code = _build(name, params)
    got = listing(code, codes._plans(code, _pair_masks(code), 1 << 16))
    assert digest(got) == _pinned()["digests"][_label(name, params)]
    assert listing(code, _one_by_one(code)) == got


@pytest.mark.parametrize("cells", [1, 97])
@pytest.mark.parametrize("name,params", [
    ("xorbas_16_10_5", {}), ("azure_lrc", dict(n=10, k=6, r=3)),
    ("mirrored_org", dict(org="cd", n=6)), ("parity3d", {}),
], ids=["xorbas", "azure", "mirrored_cd6", "parity3d"])
def test_plans_do_not_depend_on_cells(name, params, cells, monkeypatch):
    code = _build(name, params)
    masks = _pair_masks(code)
    want = codes._plans(code, masks, 1 << 16)
    monkeypatch.setattr(codes, "CELLS", cells)
    assert codes._plans(code, masks, 1 << 16) == want


@pytest.mark.parametrize("cells", [None, 1, 97], ids=["CELLS", "1", "97"])
def test_kernel_calls_stay_within_cells(cells, monkeypatch):
    # no call stacks more than CELLS cells unless it holds a single matrix;
    # a group keeps one stack shape, its last chunk padded
    if cells is not None:
        monkeypatch.setattr(codes, "CELLS", cells)
    code = builders.xorbas_16_10_5()
    shapes = _record(monkeypatch)
    codes._plans(code, _pair_masks(code), 1 << 16)
    assert shapes
    assert [s for s in shapes
            if s[0] * s[1] * s[2] > codes.CELLS and s[2] > 1] == []
    by_group = {}
    for s in shapes:
        by_group.setdefault(s[:2], set()).add(s)
    assert all(len(v) == 1 for v in by_group.values())


def test_large_group_is_chunked(monkeypatch):
    # a plan of 16 relevant equations has 2^16 - 1 subsets: they are ranked
    # in chunks of at most CELLS cells, never as one stack
    code = builders.raid4k(20, 16)
    assert sum(1 for s in code._support if s & 1) == 16
    shapes = _record(monkeypatch)
    (plan,) = codes._plans(code, [1], 1 << 16)
    assert plan.optimal and plan.equations_used == (0,)
    assert plan.reads == ("c0", "d1", "d2", "d3")
    assert len(shapes) > 1
    assert all(s[0] * s[1] * s[2] <= codes.CELLS for s in shapes)


def test_xorbas_metrics_kernel_calls(monkeypatch):
    # one gf.eliminate call per group and CELLS chunk, where planning one
    # pattern at a time made 156
    shapes = _record(monkeypatch)
    m = repair_metrics(builders.xorbas_16_10_5())
    assert m["ARC2"] == pytest.approx(9.425)
    assert len(shapes) == 10


def test_symbol_no_equation_touches_is_unrecoverable():
    # r = 0: no equation can rebuild the symbol
    code = codes.CodeSpec("loose", gf.GF2, ("d0", "d1", "d2"), ("p",),
                          (("p", (("d0", 1), ("d1", 1), ("p", 1))),))
    with pytest.raises(UnrecoverableError):
        repair_plan(code, ["d2"])
    assert codes._plans(code, [1 << 2, 1 << 0], 1 << 16)[0] is None
    assert repair_plan(code, ["d0"]).reads == ("d1", "p")
    with pytest.raises(UnrecoverableError):
        repair_metrics(code)


def test_empty_erasure_needs_no_reads():
    # nothing erased is recoverable with no reads, as is_recoverable and
    # verify_plan say; exactly, or greedily at an exact_limit of 0
    code = builders.raid5(4)
    assert codes.is_recoverable(code, [])
    assert codes.verify_plan(code, [], ())
    assert repair_plan(code, []) == codes.RepairPlan((), (), True)
    assert codes._plans(code, [0, 1, 0], 1 << 16) == [
        codes.RepairPlan((), (), True), repair_plan(code, ["d1"]),
        codes.RepairPlan((), (), True)]
    assert repair_plan(code, [], exact_limit=0) == \
        codes.RepairPlan((), (), False)


@pytest.mark.parametrize("make", [
    lambda: builders.raid5(6), lambda: builders.mirrored_org("cd", 6),
], ids=["raid5", "mirrored_cd6"])
def test_arc2_is_none_with_an_unrecoverable_pair(make):
    m = repair_metrics(make())
    assert m["ARC2"] is None
    assert m["ARC"] > 0


def test_exact_and_greedy_mix_in_one_call():
    # at an exact_limit of 8, the patterns of at most three relevant
    # equations are planned exactly and the rest greedily, in one call
    code = builders.xorbas_16_10_5()
    masks = _pair_masks(code)
    relevant = [sum(1 for s in code._support if s & m) for m in masks]
    assert min(relevant) <= 3 < max(relevant)
    mixed = codes._plans(code, masks, 8)
    assert mixed == [codes._plans(code, [m], 8)[0] for m in masks]
    assert {p.optimal for p in mixed} == {True, False}
    exact, greedy = (_pinned()[k] for k in ("xorbas_16_10_5",
                                            "xorbas_16_10_5_greedy"))
    assert list(listing(code, mixed).items()) == [
        (k, (exact if r <= 3 else greedy)[k])
        for k, r in zip(listing(code, mixed), relevant)]


def test_pair_budget_fails_before_any_plan(monkeypatch):
    shapes = _record(monkeypatch)
    ranks = _record(monkeypatch, "rank")
    with pytest.raises(BudgetExceeded):
        repair_metrics(builders.xorbas_16_10_5(), budget=119)
    assert shapes == [] and ranks == []
    assert repair_metrics(builders.xorbas_16_10_5(), budget=120)["ARC2"] \
        == pytest.approx(9.425)


if __name__ == "__main__":
    def pinned(call, exact_limit=1 << 16):
        code = _build(*call)
        return listing(code, _one_by_one(code, exact_limit))

    blocks = [(key, pinned(call, limit)) for key, call, limit in LISTINGS]
    blocks.append(("digests", {_label(*c): digest(pinned(c))
                               for c in INSTANCES}))
    FIXTURE.write_text("{\n%s\n}\n" % ",\n".join(
        "  %s: {\n%s\n  }" % (json.dumps(key), ",\n".join(
            "    %s: %s" % (json.dumps(k), json.dumps(v))
            for k, v in sorted(rows.items())))
        for key, rows in blocks))
