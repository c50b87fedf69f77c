import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from raidlab import builders, codes, gf
from raidlab.codes import (
    BudgetExceeded, UnrecoverableError, classify_array_code, decode, encode,
    encode_xor_count, erasure_tolerance, find_lrc_coefficients,
    grid_compose, is_recoverable, loss_coefficients, recoverable_fraction,
    repair_metrics, repair_plan, verify_plan,
)


RNG = np.random.default_rng(20240817)


class TestField:
    @pytest.mark.parametrize("field", [gf.GF2, gf.GF16])
    def test_axioms_exhaustive(self, field):
        els = list(field.elements())
        for a in els:
            for b in els:
                assert field.mul(a, b) == field.mul(b, a)
                assert field.add(a, b) == field.add(b, a)
        for a in els:
            if a:
                assert field.mul(a, field.inv(a)) == 1
        # distributivity spot-check on the full GF(16) table
        for a in els:
            for b in els:
                for c in (1, 7 % field.order, 11 % field.order):
                    assert field.mul(a, field.add(b, c)) == \
                        field.add(field.mul(a, b), field.mul(a, c))

    def test_gf256_inverses(self):
        f = gf.GF256
        for a in range(1, 256):
            assert f.mul(a, f.inv(a)) == 1


def roundtrip(code, pattern):
    values = encode(code, None, RNG)
    recovered = decode(code, {s: v for s, v in values.items()
                              if s not in set(pattern)}, set(pattern))
    assert recovered is not None
    for s in pattern:
        assert recovered[s] == values[s]


class TestRecoverability:
    def test_empty_pattern(self):
        c = builders.raid5(5)
        assert is_recoverable(c, [])

    def test_rdp_all_column_pairs(self):
        c = builders.rdp(5)
        pairs = list(combinations(c.columns(), 2))
        assert len(pairs) == 15
        assert all(is_recoverable(c, p, "column") for p in pairs)

    def test_xcode_all_column_pairs(self):
        c = builders.xcode(7)
        pairs = list(combinations(c.columns(), 2))
        assert len(pairs) == 21
        assert all(is_recoverable(c, p, "column") for p in pairs)

    def test_pmds_fig_case_one(self):
        c = builders.pmds_fig()
        assert is_recoverable(c, ["d3", "d9", "d15", "d21", "d2", "d12"])

    def test_monotone_supersets(self):
        c = builders.sspiral(8)
        fatal = ("A", "ABC", "CDA", "DAB")
        assert not is_recoverable(c, fatal)
        for extra in set(c.symbols) - set(fatal):
            assert not is_recoverable(c, fatal + (extra,))

    def test_roundtrip_decoding(self):
        c = builders.rdp(5)
        for pattern in combinations(c.columns(), 2):
            erased = [s for s in c.symbols if c.column_map[s] in pattern]
            roundtrip(c, erased)
        c = builders.was_lrc_6_2_2()
        roundtrip(c, ["x0", "y1", "p0"])

    def test_encode_without_all_data_is_undetermined(self):
        with pytest.raises(ValueError, match="does not determine the checks"):
            encode(builders.raid5(4), {"d1": 1, "d2": 0})

    @pytest.mark.parametrize("call", [
        lambda c: is_recoverable(c, [7, 9], "column"),
        lambda c: is_recoverable(c, ["d9"]),
        lambda c: repair_plan(c, ["d1", "d9"]),
        lambda c: repair_plan(c, [7], granularity="column"),
        lambda c: verify_plan(c, ["d9"], ["d1", "d2"]),
        lambda c: verify_plan(c, ["d1"], ["d2", "d3", "x"]),
        lambda c: decode(c, {}, ["d9"]),
    ], ids=["columns", "symbol", "plan", "plan-column", "verify-erased",
            "verify-read", "decode"])
    def test_unknown_units_rejected(self, call):
        # raid5(4) has the symbols d1 d2 d3 p in columns 0-3
        with pytest.raises(ValueError, match="^code raid5.* has no "):
            call(builders.raid5(4))

    def test_xcode_each_block_two_diagonals(self):
        c = builders.xcode(7)
        for d in c.data_ids:
            hits = [cid for cid, terms in c.equations
                    if any(s == d for s, _ in terms)]
            assert len(hits) == 2
            rows = {c.row_map[h] for h in hits}
            assert rows == {5, 6}  # one +1-slope and one -1-slope parity


class TestTolerance:
    def test_mds_column_tolerance(self):
        c = builders.raid4k(8, 2)
        assert erasure_tolerance(c, "column") == 2

    def test_hvpc_tolerance_three(self):
        c = builders.hvpc(3, 3)
        assert erasure_tolerance(c) == 3  # (1+1)(1+1)-1

    def test_sspiral_symbol_tolerance(self):
        # every 3-set is recoverable; the minimal fatal sets have size 4
        # (a data disk with the three parities it participates in, a data
        # triple with its covering parity, or a data pair with the two
        # parities spanning the other pair)
        c = builders.sspiral(8)
        assert erasure_tolerance(c) == 3
        assert not is_recoverable(c, ["A", "B", "C", "ABC"])
        assert is_recoverable(c, ["A", "B", "C", "D"])
        assert not is_recoverable(c, ["A", "ABC", "CDA", "DAB"])

    def test_rm2_tolerates_two_columns(self):
        c = builders.rm2()
        assert erasure_tolerance(c, "column") >= 2

    def test_budget_error(self):
        c = builders.xcode(7)
        with pytest.raises(BudgetExceeded):
            erasure_tolerance(c, "symbol", budget=10)

    @pytest.mark.parametrize("n,k,field", [
        (6, 2, gf.GF2), (3, 1, gf.GF2), (18, 2, gf.GF16),
    ], ids=["gf2", "gf2-edge", "gf16-edge"])
    def test_raid4k_rejects_field_too_small(self, n, k, field):
        # GF(2^w) has 2^w - 1 nonzero elements to weight the data with
        with pytest.raises(ValueError, match="^field too small for %d data "
                                             "symbols$" % (n - k)):
            builders.raid4k(n, k, field=field)

    def test_raid4k_fills_the_field(self):
        assert builders.raid4k(2, 1, field=gf.GF2).k == 1
        assert builders.raid4k(17, 2, field=gf.GF16).k == 15

    def test_raid4k_rejects_non_mds_generator(self):
        # over GF(16) the Vandermonde rows of raid4k(9, 4) are not MDS
        with pytest.raises(ValueError,
                           match="^generator is not MDS for n=9 k=4$"):
            builders.raid4k(9, 4, field=gf.GF16)


class TestFractions:
    def test_pyramid_table_row(self):
        c = builders.pyramid_8_2_2()
        for f in (1, 2, 3):
            frac, _, _ = recoverable_fraction(c, f, decoder="local-global")
            assert frac == 1.0
        frac, exact, counts = recoverable_fraction(c, 4, decoder="local-global")
        assert counts == (341, 495)
        assert frac == pytest.approx(0.6889, abs=5e-5)

    def test_pyramid_12_local_global_counts(self):
        c = builders.pyramid_12_2_2()
        assert recoverable_fraction(c, 4, decoder="local-global")[2] == \
            (2380, 2380)
        assert recoverable_fraction(c, 5, decoder="local-global")[2] == \
            (3179, 6188)

    def test_pyramid_joint_distinct_from_decoder(self):
        c = builders.pyramid_8_2_2()
        frac, _, counts = recoverable_fraction(c, 4, decoder="joint")
        assert counts == (425, 495)  # joint decoding recovers strictly more

    def test_mds_11_8_column(self):
        c = builders.raid4k(11, 3)
        for f in (1, 2, 3):
            assert recoverable_fraction(c, f)[0] == 1.0
        assert recoverable_fraction(c, 4)[0] == 0.0

    def test_was_lrc_fractions(self):
        c = builders.was_lrc_6_2_2()
        assert recoverable_fraction(c, 3)[0] == 1.0
        frac, exact, _ = recoverable_fraction(c, 4)
        assert exact == Fraction(6, 7)
        assert abs(frac - 0.86) <= 0.005

    def test_mds_trivial(self):
        c = builders.raid4k(10, 4)
        assert recoverable_fraction(c, 4)[0] == 1.0

    def test_unknown_decoder_rejected(self):
        with pytest.raises(ValueError, match="decoder"):
            recoverable_fraction(builders.rdp(5), 2, decoder="nonsense")

    def test_unknown_granularity_rejected_before_budget(self):
        with pytest.raises(ValueError, match="granularity"):
            recoverable_fraction(builders.rdp(5), 2, granularity="sector",
                                 budget=0)


class TestClassification:
    def test_pmds_variant(self):
        c = builders.pmds_fig("pmds")
        assert classify_array_code(c, n=7, m=1, r=4, s=2) == "PMDS"

    def test_sd_variant(self):
        c = builders.pmds_fig("sd")
        assert classify_array_code(c, n=7, m=1, r=4, s=2) == "SD"
        # a PMDS-style pattern that SD codes miss: one sector in each of
        # the four rows plus two more (d3 in row 0, g1 in row 3)
        pattern = ["d0", "d3", "d10", "d12", "d19", "g1"]
        assert not is_recoverable(c, pattern)
        assert is_recoverable(builders.pmds_fig("pmds"), pattern)
        # spot: whole-column failures stay recoverable
        for col in c.columns():
            assert is_recoverable(c, [col], "column")

    def test_mds_columns_with_s0(self):
        c = builders.raid4k(6, 2)
        c2 = codes.CodeSpec(
            name=c.name, field=c.field,
            data_ids=c.data_ids, check_ids=c.check_ids, equations=c.equations,
            column_map=c.column_map, row_map={s: 0 for s in c.symbols})
        assert classify_array_code(c2, n=6, m=2, r=1, s=0) == "PMDS"


class TestRepair:
    def test_azure_single_data_three_reads(self):
        c = builders.azure_lrc(10, 6, 3)
        plan = repair_plan(c, ["d0"])
        assert plan.symbols_read == 3
        assert verify_plan(c, ["d0"], plan.reads)

    def test_raid5_full_stripe_reads(self):
        c = builders.raid5(7)
        plan = repair_plan(c, ["d1"])
        assert plan.symbols_read == 6

    def test_rdp_column_repair_beats_naive(self):
        c = builders.rdp(5)
        col = 0
        plan = repair_plan(c, [col], granularity="column")
        assert plan.optimal
        p = 5
        assert plan.symbols_read < 2 * (p - 1) ** 2
        # mixing row and diagonal groups beats the all-row repair (12 reads)
        assert plan.symbols_read < 16
        erased = [s for s in c.symbols if c.column_map[s] == col]
        assert verify_plan(c, erased, plan.reads)

    def test_mds42_chain_is_valid_plan(self):
        c = builders.mds42()
        # the two-read-combination repair of the first node
        assert verify_plan(c, ["A1", "A2"], ["B2", "c2", "c4"])
        plan = repair_plan(c, [0], granularity="column")
        assert plan.symbols_read <= 3

    def test_unrecoverable_raises(self):
        c = builders.raid5(5)
        with pytest.raises(UnrecoverableError):
            repair_plan(c, ["d1", "d2"])

    def test_plan_not_worse_than_full_reconstruction(self):
        for c in (builders.raid4k(8, 2), builders.azure_lrc(10, 6, 3)):
            for s in c.symbols:
                assert repair_plan(c, [s]).symbols_read <= c.k

    def test_verify_rejects_too_small_read_set(self):
        c = builders.raid5(5)
        assert not verify_plan(c, ["d1"], ["d2", "d3"])

    # every single and pair plan, exact and greedy, as the one-subset-at-a-
    # time search planned them
    PINNED = json.loads(
        (Path(__file__).parent / "repair_plans.json").read_text())

    @pytest.mark.parametrize("name,make,exact_limit", [
        ("xorbas_16_10_5", builders.xorbas_16_10_5, 1 << 16),
        ("azure_lrc_10_6_3", lambda: builders.azure_lrc(10, 6, 3), 1 << 16),
        ("xorbas_16_10_5_greedy", builders.xorbas_16_10_5, 1),
    ], ids=["xorbas", "azure", "xorbas_greedy"])
    def test_plans_match_pinned(self, name, make, exact_limit):
        code = make()
        got = {}
        for f in (1, 2):
            for p in combinations(code.symbols, f):
                plan = repair_plan(code, list(p), exact_limit=exact_limit)
                got[" ".join(p)] = [list(plan.reads),
                                    list(plan.equations_used), plan.optimal]
        assert got == self.PINNED[name]


class TestMetrics:
    def test_azure_10_6_3(self):
        m = repair_metrics(builders.azure_lrc(10, 6, 3))
        assert m["ARC"] == pytest.approx(3.6)
        assert m["NRC"] == pytest.approx(6.0)
        assert m["DRC"] == pytest.approx(3.0)

    def test_was_lrc_average_cost(self):
        m = repair_metrics(builders.was_lrc_6_2_2())
        assert m["ARC"] == pytest.approx(3.6)

    def test_raid5_arc(self):
        m = repair_metrics(builders.raid5(8))
        assert m["ARC"] == pytest.approx(7.0)

    def test_xorbas_locality_five(self):
        m = repair_metrics(builders.xorbas_16_10_5())
        assert all(cost == 5 for cost in m["per_symbol"].values())

    def test_arc2_pairwise(self):
        m = repair_metrics(builders.raid4k(6, 2))
        # any pair of an MDS(4+2) needs the four other symbols
        assert m["ARC2"] == pytest.approx(4.0)


class TestXorCount:
    def test_rdp_count(self):
        assert encode_xor_count(builders.rdp(5)) == 24
        assert 24 == 2 * 25 - 6 * 5 + 4

    def test_rdp_per_block_ratio(self):
        for p in (5, 7, 11):
            c = builders.rdp(p)
            n = p - 1
            ratio = encode_xor_count(c) / ((p - 1) ** 2)
            assert ratio == pytest.approx(2 - 2 / n)

    def test_raid5_count(self):
        assert encode_xor_count(builders.raid5(7)) == 5

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            encode_xor_count(builders.raid4k(6, 2))


class TestGrid:
    def test_two_by_two_corner(self):
        c = builders.hvpc(2, 2)
        values = encode(c, None, RNG)
        corner = values["s2_2"]
        total = 0
        for i in range(2):
            for j in range(2):
                total ^= values["s%d_%d" % (i, j)]
        assert corner == total

    def test_tolerance_and_rectangles(self):
        c = builders.hvpc(4, 4)
        assert erasure_tolerance(c) == 3
        # a 2x2 rectangle of erasures is fatal
        assert not is_recoverable(c, ["s0_0", "s0_1", "s1_0", "s1_1"])

    def test_xcode_spc_update_complexity(self):
        c = builders.xcode_with_spc(5)
        d = c.data_ids[7]
        touching = [cid for cid, terms in c.equations
                    if any(s == d for s, _ in terms)]
        # two diagonal parities plus the column parity chain
        assert len(touching) == 3
        kinds = {cid[:2] for cid in touching}
        assert "sp" in kinds

    def test_grid_compose_generic(self):
        from raidlab.builders import spc
        c = grid_compose(spc, spc, 3, 5)
        assert c.n == 4 * 6
        assert erasure_tolerance(c) == 3


class TestLrcCoefficients:
    def test_determinant_families_nonzero(self):
        alphas, betas = find_lrc_coefficients()
        f = gf.GF16
        for i in range(3):
            for s in range(3):
                det = f.mul(f.mul(alphas[i], betas[s]),
                            alphas[i] ^ betas[s])
                assert det != 0

    def test_full_fraction_via_code(self):
        c = builders.was_lrc_6_2_2()
        assert recoverable_fraction(c, 3)[0] == 1.0
        assert recoverable_fraction(c, 4)[2][0] == 180


class TestLossCoefficients:
    def test_bm_pairs_closed_form(self):
        import math
        c = builders.mirrored_org("bm", 8)
        a = loss_coefficients(c, "column")
        m = 4
        for i in range(m + 1):
            assert a[i] == math.comb(m, i) * 2 ** i

    def test_sspiral_fatal_four(self):
        import math
        a = loss_coefficients(builders.sspiral(8))
        assert math.comb(8, 4) - a[4] == 14
        assert math.comb(8, 4) // 5 == 14

    def test_raid5_single_failures(self):
        a = loss_coefficients(builders.raid5(6))
        assert a[1] == 6
        assert a[2] == 0

    def test_code_without_equations_recovers_nothing(self):
        # the compiled matrix has no rows, and the kernel must still answer
        c = codes.CodeSpec("bare", gf.GF16, ("a", "b"), (), ())
        assert loss_coefficients(c) == [1, 0, 0]
        assert not is_recoverable(c, ["a"])

    def test_zero_index_is_one(self):
        a = loss_coefficients(builders.lsi(8))
        assert a[0] == 1
        # three-failure survivors: all but the data-centered triples
        import math
        assert math.comb(8, 3) - a[3] == 4


class TestEnumeratorConsistency:
    @pytest.mark.parametrize("make,granularity", [
        (lambda: builders.rdp(5), "column"),
        (builders.was_lrc_6_2_2, "column"),
        (lambda: builders.hvpc(2, 2), "symbol"),
        (lambda: builders.raid4k(6, 2), "symbol"),
    ], ids=["rdp5", "was_lrc", "hvpc2x2", "raid4k6_2"])
    def test_loss_fraction_tolerance_agree(self, make, granularity):
        code = make()
        n = len(code.columns() if granularity == "column" else code.symbols)
        loss = loss_coefficients(code, granularity)
        assert len(loss) == n + 1
        for f in range(1, n + 1):
            assert loss[f] == recoverable_fraction(code, f, granularity)[2][0]
        t = erasure_tolerance(code, granularity)
        assert all(loss[i] == comb(n, i) for i in range(t + 1))
        assert t == n or loss[t + 1] < comb(n, t + 1)

    @pytest.mark.parametrize("make,granularity,sizes", [
        (builders.was_lrc_6_2_2, "column", None),
        (builders.pyramid_8_2_2, "symbol", None),
        (lambda: builders.xcode(7), "symbol", (1, 2, 3)),
        (builders.resar_small, "column", None),
    ], ids=["was_lrc", "pyramid", "xcode7", "resar_small"])
    def test_batched_walk_matches_single_patterns(self, make, granularity,
                                                  sizes):
        # the walker decides blocks of patterns by rank alone; one pattern
        # at a time, is_recoverable peels first.  resar_small's columns hold
        # 9 or 10 symbols, so its blocks are padded
        code = make()
        units = code.columns() if granularity == "column" else code.symbols
        single = [sum(is_recoverable(code, p, granularity)
                      for p in combinations(units, f))
                  for f in sizes or range(1, len(units) + 1)]
        batched = [recoverable_fraction(code, f, granularity)[2][0]
                   for f in sizes or range(1, len(units) + 1)]
        assert batched == single
        if sizes is None:
            assert loss_coefficients(code, granularity) == [1] + single


def _rows(code):
    """The code's equations, then its extra equations, as term tuples."""
    return [terms for _, terms in code.equations] + list(code.extra_equations)


def _mask(code, symbols):
    return sum(1 << code._index[s] for s in set(symbols))


class TestDerivedCache:
    @pytest.mark.parametrize("make,bits", [
        (lambda: builders.rdp(5), 1),
        (builders.was_lrc_6_2_2, 4),
        (builders.pmds_fig, 8),
    ], ids=["rdp5", "was_lrc", "pmds_fig"])
    def test_cached_rows_and_columns_match_fresh(self, make, bits):
        code = make()
        assert code.field.w == bits
        # a query first, so the forms are the ones the queries read
        assert is_recoverable(code, [code.symbols[0]])
        assert code._support == [_mask(code, (s for s, _ in terms))
                                 for terms in _rows(code)]
        assert sorted(code._column_masks, key=str) == code.columns()
        for col in code.columns():
            assert code._column_masks[col] == _mask(
                code, (s for s, c in code.column_map.items() if c == col))

    @pytest.mark.parametrize("make", [
        lambda: builders.rdp(5), builders.was_lrc_6_2_2, builders.pmds_fig,
        builders.xorbas_16_10_5,
    ], ids=["rdp5", "was_lrc", "pmds_fig", "xorbas"])
    def test_compiled_matrix_matches_rows(self, make):
        code = make()
        h = code._H
        assert h.dtype == np.uint8
        assert h.shape == (len(code.equations) + len(code.extra_equations),
                           code.n)
        assert h.tolist() == [[dict(terms).get(s, 0) for s in code.symbols]
                              for terms in _rows(code)]
        assert [code._index[s] for s in code.symbols] == list(range(code.n))

    def test_cached_base_rows_match_base_view(self):
        code = builders.pyramid_8_2_2()
        h, support, stored, virtuals = code._base
        view = code.base_view
        ids = code.symbols + tuple(view["virtuals"])
        assert h.tolist() == [[dict(eq).get(s, 0) for s in ids]
                              for eq in view["equations"]]
        assert support == [sum(1 << ids.index(s) for s, _ in eq)
                           for eq in view["equations"]]
        assert stored == sum(1 << ids.index(s) for s in
                             {s for eq in view["equations"] for s, _ in eq})
        assert virtuals == [(1 << ids.index(vid),
                             _mask(code, (s for s, _ in parts)))
                            for vid, parts in view["virtuals"].items()]
        assert builders.raid5(4)._base is None

    @pytest.mark.parametrize("make", [
        builders.was_lrc_6_2_2, builders.pyramid_8_2_2,
    ], ids=["was_lrc", "pyramid"])
    def test_shared_matrices_are_read_only(self, make):
        code = make()
        with pytest.raises(ValueError, match="read-only"):
            code._H[0, 0] = 1
        if code.base_view:
            with pytest.raises(ValueError, match="read-only"):
                code._base[0][0, 0] = 1
        # queries slice copies, so they still run
        assert is_recoverable(code, code.symbols[:2])


SMALL_PARAMS = {
    "raid4k": dict(n=6, k=2), "rdp": dict(p=5), "xcode": dict(n=5),
    "hvpc": dict(k1=2, k2=3), "azure_lrc": dict(n=10, k=6, r=3),
    "xcode_with_spc": dict(p=5), "mirrored_org": dict(org="cd", n=5),
    "raid5": dict(n=4),
}


class TestSerialization:
    def test_round_trip_all_builders(self):
        for name in builders.BUILDERS:
            code = builders.build_code(name, **SMALL_PARAMS.get(name, {}))
            assert code.n == len(code.symbols)
            doc = codes.to_json(code)
            back = codes.from_json(json.loads(json.dumps(doc)))
            assert back.n == code.n
            assert back.symbols == code.symbols
            assert back.column_map == code.column_map
            # identical recoverability behaviour on a pattern sample
            for pattern in combinations(sorted(code.symbols, key=str)[:6], 3):
                assert codes.is_recoverable(back, pattern) == \
                    codes.is_recoverable(code, pattern)

    def test_equation_on_unknown_symbol_rejected(self):
        doc = codes.to_json(builders.raid5(4))
        doc["equations"][0][1].append(["x", 1])
        with pytest.raises(ValueError, match="^equation term 'x' is not a "):
            codes.from_json(doc)

    def test_base_view_on_unknown_symbol_rejected(self):
        code = builders.pyramid_8_2_2()
        view = code.base_view
        bad_term = {**view, "equations": view["equations"] + ((("x", 1),),)}
        with pytest.raises(ValueError, match="^equation term 'x' is not a "):
            replace(code, base_view=bad_term)
        bad_part = {**view, "virtuals": {"p1": (("c1_1", 1), ("y", 1))}}
        with pytest.raises(ValueError, match="has no symbol 'y'"):
            replace(code, base_view=bad_part)

    def test_default_column_map_is_one_column_per_symbol(self):
        code = builders.raid5(4)
        assert code.column_map == {"d1": 0, "d2": 1, "d3": 2, "p": 3}
        assert code.columns() == [0, 1, 2, 3]

    def test_serialized_metrics_match(self):
        code = builders.azure_lrc(10, 6, 3)
        back = codes.from_json(codes.to_json(code))
        assert codes.repair_metrics(back)["ARC"] == pytest.approx(3.6)


class TestUpdateCost:
    def test_stated_bounds(self):
        assert codes.mds_update_cost(2, 4, 8) == pytest.approx(
            2 + (1 - 1 / 8) / 4)
        assert codes.mds_update_cost(3, 4, 8) == pytest.approx(
            3 + 3 / 4 * (2 / 3 - 1 / 8))
        with pytest.raises(ValueError):
            codes.mds_update_cost(4, 4, 8)


class TestPrintedEquations:
    def test_rdp_first_diagonal_equation(self):
        # diagonal parity of the first diagonal collects
        # d00, d32, d23, d14 exactly
        c = builders.rdp(5)
        eq = dict(c.equations)["d0_5"]
        members = {s for s, _ in eq} - {"d0_5"}
        assert members == {"d0_0", "d3_2", "d2_3", "d1_4"}

    def test_rdp_second_diagonal_equation(self):
        c = builders.rdp(5)
        eq = dict(c.equations)["d1_5"]
        members = {s for s, _ in eq} - {"d1_5"}
        assert members == {"d0_1", "d1_0", "d3_3", "d2_4"}

    def test_raid5_parity_is_xor_of_data(self):
        c = builders.raid5(5)
        eq = dict(c.equations)["p"]
        assert {s for s, _ in eq} == {"d1", "d2", "d3", "d4", "p"}
        assert all(coef == 1 for _, coef in eq)


class TestFixtureShapes:
    def test_resar_membership_example(self):
        c = builders.resar_small()
        touching = [cid for cid, terms in c.equations
                    if any(s == "n39" for s, _ in terms)]
        assert sorted(touching) == ["D7", "P6"]

    def test_resar_single_failures_recoverable(self):
        c = builders.resar_small()
        for s in c.data_ids:
            assert codes.is_recoverable(c, [s])

    def test_rm2_group_membership(self):
        c = builders.rm2()
        p0 = dict(c.equations)["P0"]
        members = {s for s, _ in p0} - {"P0"}
        assert members == {"d0_6", "d0_1", "e0_4", "e0_3"}
        # every data strip is protected by exactly two parity groups
        for d in c.data_ids:
            hits = sum(1 for _, terms in c.equations
                       if any(s == d for s, _ in terms))
            assert hits == 2

    def test_parity2d_printed_loss_examples(self):
        c = builders.parity2d()
        assert not codes.is_recoverable(c, ["P1", "P2", "D1"])
        assert not codes.is_recoverable(c, ["D1", "D5", "D8"])
        assert codes.erasure_tolerance(c) == 2

    def test_parity3d_printed_loss_example(self):
        c = builders.parity3d()
        assert not codes.is_recoverable(c, ["P2", "P5", "D2", "P6"])
        assert codes.erasure_tolerance(c) == 3

    def test_mds42_node4_repair_chain(self):
        c = builders.mds42()
        # rebuilding the second coded node from data combinations
        assert codes.verify_plan(c, ["c3", "c4"], ["A1", "A2", "B1", "B2"])
