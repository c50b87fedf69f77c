import gc
import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, chain, combinations, islice
from math import comb
from pathlib import Path

import numpy as np
import pytest

from raidlab import builders, codes, ctmc, gf
from raidlab.builders import find_lrc_coefficients, grid_compose
from raidlab.codes import (
    BudgetExceeded, UnrecoverableError, classify_array_code, decode, encode,
    encode_xor_count, erasure_tolerance, is_recoverable, loss_coefficients,
    recoverable_fraction, repair_metrics, repair_plan, verify_plan,
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
        c = builders.sspiral()
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

    def test_decode_without_a_survivor_value(self):
        # d3 and p survive the loss of d2, but only d1 has a value
        with pytest.raises(ValueError, match="surviving symbols d3, p$"):
            decode(builders.raid5(4), {"d1": 1}, ["d2"])

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
        c = builders.sspiral()
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
        a = loss_coefficients(builders.sspiral())
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
        a = loss_coefficients(builders.lsi())
        assert a[0] == 1
        # three-failure survivors: all but the data-centered triples
        import math
        assert math.comb(8, 3) - a[3] == 4


def _subset_mask(units):
    return sum(1 << u for u in units)


class TestRecoverableSets:
    def test_every_recoverable_column_set_of_small_builders(self):
        checked = 0
        for name in builders.BUILDERS:
            code = builders.build_code(name, **SMALL_PARAMS.get(name, {}))
            cols = code.columns()
            if len(cols) > 12:
                continue
            table = codes.recoverable_sets(code, "column")
            want = [_subset_mask(c) for f in range(len(cols) + 1)
                    for c in combinations(range(len(cols)), f)
                    if is_recoverable(code, [cols[i] for i in c], "column")]
            assert len(table) == len(set(table))
            assert set(table) == set(want), name
            checked += 1
        assert checked >= 15

    @pytest.mark.parametrize("make", [
        builders.xorbas_16_10_5, lambda: builders.azure_lrc(16, 12, 4),
        builders.pyramid_12_2_2,
    ], ids=["xorbas", "azure_lrc_16_12_4", "pyramid_12_2_2"])
    def test_large_codes_against_coefficients_and_samples(self, make):
        code = make()
        cols = code.columns()
        table = codes.recoverable_sets(code, "column")
        sizes = [m.bit_count() for m in table]
        assert sizes == sorted(sizes)
        coeffs = loss_coefficients(code, "column")
        assert [sizes.count(i) for i in range(len(coeffs))] == coeffs
        table = set(table)
        rng = np.random.default_rng(500)
        for _ in range(500):
            units = np.flatnonzero(rng.random(len(cols)) < 0.35).tolist()
            assert (_subset_mask(units) in table) == \
                is_recoverable(code, [cols[i] for i in units], "column")

    def test_symbol_granularity_indexes_symbols(self):
        code = builders.mds42()  # 4 columns of 2 symbols
        table = set(codes.recoverable_sets(code, "symbol"))
        # two whole columns are recoverable, three are not
        index = {s: i for i, s in enumerate(code.symbols)}
        column = {c: _subset_mask(index[s] for s, cc in code.column_map.items()
                                  if cc == c) for c in code.columns()}
        assert column[0] | column[1] in table
        assert column[0] | column[1] | column[2] not in table

    def test_over_budget_raises_and_is_never_cut_short(self):
        code = builders.rdp(7)  # 48 symbols
        with pytest.raises(BudgetExceeded):
            codes.recoverable_sets(code, "symbol", budget=1000)
        assert len(codes.recoverable_sets(code, "column", budget=1000)) == \
            sum(loss_coefficients(code, "column"))


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
        h, stored, virtuals = code._base
        view = code.base_view
        ids = code.symbols + tuple(view["virtuals"])
        assert h.tolist() == [[dict(eq).get(s, 0) for s in ids]
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

    @pytest.mark.parametrize("make,f,want", [
        (builders.pyramid_8_2_2, 4, (341, 495)),
        (builders.pyramid_12_2_2, 5, (3179, 6188)),
    ], ids=["pyramid_8_2_2", "pyramid_12_2_2"])
    def test_round_trip_keeps_the_base_view(self, make, f, want):
        code = make()
        doc = json.loads(json.dumps(codes.to_json(code)))
        back = codes.from_json(doc)
        assert codes.to_json(back) == doc
        for c in (code, back):
            _, _, got = codes.recoverable_fraction(c, f,
                                                   decoder="local-global")
            assert got == want

    def test_document_with_a_group_map_loads(self):
        # documents written while CodeSpec had a group_map still load
        code = builders.was_lrc_6_2_2()
        doc = dict(codes.to_json(code), group_map={"x0": 0, "y0": 1})
        assert codes.to_json(codes.from_json(doc)) == codes.to_json(code)

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


def _unit_patterns(code, granularity, largest=3):
    """Every pattern of up to `largest` of the code's units, by size and
    in the combinations order of `codes._walk`."""
    units = code.columns() if granularity == "column" else list(code.symbols)
    return [p for f in range(largest + 1) for p in combinations(units, f)]


def _walk_verdicts(code, granularity, largest=3):
    """The batched walker's verdicts on the patterns of `_unit_patterns`."""
    out = [True]  # the empty pattern
    for f in range(1, largest + 1):
        (_, _, verdicts), = codes._walk(code, granularity,
                                        codes.DEFAULT_BUDGET, size=f)
        out += chain.from_iterable(verdicts)
    return out


def _column_chain(code, delta, mu):
    """The failed-column-set chain of a code under per-failure repair, as
    (edges, chain): each live column fails at delta, each failed column is
    repaired at mu, and the chain absorbs at the first unrecoverable set."""
    cols = code.columns()
    start = frozenset()
    edges = []
    todo = [start]
    seen = {start}
    while todo:
        failed = todo.pop()
        for col in cols:
            if col in failed:
                edges.append((failed, failed - {col}, mu))
                continue
            nxt = failed | {col}
            if not is_recoverable(code, sorted(nxt, key=str), "column"):
                nxt = "loss"
            elif nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
            edges.append((failed, nxt, delta))
    return edges, ctmc.build_ctmc(edges, absorbing=["loss"], states=[start])


def _small(name):
    return builders.build_code(name, **SMALL_PARAMS.get(name, {}))


class TestVerdictMemo:
    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_memo_agrees_with_fresh_codes_and_walker(self, name, granularity):
        patterns = _unit_patterns(_small(name), granularity)
        want = _walk_verdicts(_small(name), granularity)
        assert len(want) == len(patterns)
        fresh = _small(name)
        assert fresh._memo == {}
        cold_memo = []
        for p in patterns:  # a memo that has seen no other pattern
            fresh._memo.clear()
            cold_memo.append(is_recoverable(fresh, p, granularity))
        assert cold_memo == want
        for order in (patterns, patterns[::-1]):
            code = _small(name)
            cold = [is_recoverable(code, p, granularity) for p in order]
            warm = [is_recoverable(code, p, granularity) for p in order]
            expected = want if order is patterns else want[::-1]
            assert cold == expected
            assert warm == expected
            assert all(type(v) is bool for v in cold + warm)

    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_warm_code_still_rejects_bad_units(self, name, granularity):
        code = _small(name)
        patterns = _unit_patterns(code, granularity)
        for p in patterns:
            is_recoverable(code, p, granularity)
        for p in patterns[::max(1, len(patterns) // 40)]:
            with pytest.raises(ValueError, match="has no"):
                is_recoverable(code, p + ("no-such-unit",), granularity)
            with pytest.raises(ValueError, match="granularity"):
                is_recoverable(code, p, "row")

    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_capped_memo_stays_bounded_and_right(self, name, granularity,
                                                 monkeypatch):
        limit = 2
        monkeypatch.setattr(codes, "MEMO_LIMIT", limit)
        code = _small(name)
        patterns = _unit_patterns(code, granularity)
        want = _walk_verdicts(code, granularity)
        got, clears = [], 0
        for p in patterns + patterns[::-1]:
            before = set(code._memo)
            got.append(is_recoverable(code, p, granularity))
            clears += not before <= code._memo.keys()
            assert len(code._memo) <= limit
        assert got == want + want[::-1]
        if len({codes._peel(code._support,
                            codes._expand(code, p, granularity))
                for p in patterns} - {0}) > limit:
            assert clears, "memo of %d never emptied" % limit

    def test_was_lrc_column_chain_ranks_each_residual_once(self, monkeypatch):
        code = builders.was_lrc_6_2_2()
        ranked, solved, residuals = [], [], set()
        rank, solvable, expand = gf.rank, codes._solvable, codes._expand

        def counted_rank(field, m):
            ranked.append(m.shape)
            return rank(field, m)

        def counted_solvable(field, h, support, erased):
            solved.append(erased)
            return solvable(field, h, support, erased)

        def noted_expand(code, pattern, granularity):
            erased = expand(code, pattern, granularity)
            residuals.add(codes._peel(code._support, erased))
            return erased

        monkeypatch.setattr(gf, "rank", counted_rank)
        monkeypatch.setattr(codes, "_solvable", counted_solvable)
        monkeypatch.setattr(codes, "_expand", noted_expand)
        first_edges, first = _column_chain(code, 0.1, 1.0)
        residuals.discard(0)
        # a residual touched by fewer rows than it has symbols is decided
        # without a rank test
        ranks_needed = sum(
            sum(1 for r in code._support if r & e) >= bin(e).count("1")
            for e in residuals)
        assert sorted(solved) == sorted(residuals)
        assert len(ranked) == ranks_needed > 0
        ranked.clear()
        solved.clear()
        second_edges, second = _column_chain(code, 0.1, 1.0)
        assert ranked == [] and solved == []
        assert second_edges == first_edges
        for built in (first, second):
            assert len(built.states) == 357
            mtta, _, _ = ctmc.mean_time_to_absorption(built)
            assert mtta == pytest.approx(134.06629005793945, rel=1e-9)


def _per_pattern_verdicts(code, patterns):
    """The reference for `codes._verdicts`: a rank test of each pattern on
    its own, BLOCK patterns per kernel call, shorter patterns padded by
    repeating their first index (which leaves their rank as it is)."""
    patterns = iter(patterns)
    while block := list(islice(patterns, codes.BLOCK)):
        sizes = list(map(len, block))
        width = max(sizes)
        block = [p + p[:1] * (width - len(p)) for p in block]
        idx = np.fromiter(chain.from_iterable(block), np.intp)
        m = code._H[:, idx.reshape(len(block), width).T]
        ranks = gf.eliminate(code.field, m, width)
        yield [r == size for r, size in zip(ranks.tolist(), sizes)]


def _flat(blocks):
    return list(chain.from_iterable(blocks))


def _parts(code, granularity):
    """Each unit's symbol indices, in the unit order of `codes._walk`."""
    units = code.columns() if granularity == "column" else code.symbols
    return [tuple(codes._bits(codes._expand(code, [u], granularity)))
            for u in units]


def _table(code, units):
    """Units of symbol indices as a `codes._tree` level table, as wide as
    its widest unit."""
    return codes._table(code.n, units, max(map(len, units), default=1))


def _tree_patterns(code, levels, order=(), s=0):
    """The symbol-index patterns that `codes._tree` decides, in its order:
    a unit per level, past the previous level's unless the level is fresh,
    then s extras, in `order`, from the symbols no level picked."""
    def below(d, cur, picked):
        if d == len(levels):
            rest = [j for j in list(order) if j not in picked]
            for extra in combinations(rest, s):
                yield picked + extra
            return
        table, fresh = levels[d]
        for p in range(0 if fresh else cur + 1, len(table)):
            yield from below(d + 1, p, picked + tuple(
                j for j in table[p].tolist() if j < code.n))
    return below(0, -1, ())


def _walk_trees(code):
    """(levels, order, s) of the size 1 to 3 walks over the code's symbols
    and columns and over a seeded partition of its symbols into units of
    one to three, and of a seeded product of two fresh levels with extras:
    at most a few thousand patterns each."""
    rng = random.Random(code.n)
    trees = []
    shuffled = rng.sample(range(code.n), code.n)
    cuts = sorted(rng.sample(range(1, code.n), min(code.n - 1, code.n // 2)))
    mixed = [tuple(shuffled[i:j]) for i, j in zip([0] + cuts, cuts + [code.n])
             if len(shuffled[i:j]) <= 3] or [(j,) for j in shuffled]
    for units in (_parts(code, "symbol"), _parts(code, "column"), mixed):
        table = _table(code, units)
        trees += [([(table, False)] * f, (), 0)
                  for f in (1, 2, 3) if f <= len(units)]
    # two fresh levels over disjoint pools, k-subsets of each, then extras
    k = rng.randint(1, 2)
    pools = [shuffled[:k + 2], shuffled[k + 2:2 * k + 4]]
    if len(pools[1]) == k + 2 and code.n > 2 * k + 4:
        levels = [(_table(code, list(combinations(pool, k))), True)
                  for pool in pools]
        trees.append((levels, np.array(rng.sample(range(code.n), code.n)),
                      rng.randint(1, 2)))
    return trees


def _sizes_above_rank(code, granularity):
    """The unit counts f whose every pattern erases more than rank(_H)
    symbols."""
    parts = _parts(code, granularity)
    fewest = list(accumulate(sorted(map(len, parts)), initial=0))
    rank = gf.rank(code.field, code._H)
    return [f for f in range(1, len(parts) + 1) if fewest[f] > rank]


class TestPrefixVerdicts:
    # CELLS of 1 leaves one node per kernel call; 97 splits each level of
    # a tree over many small chunks
    @pytest.mark.parametrize("cells", [None, 1, 97], ids=["CELLS", "1", "97"])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_matches_per_pattern_rank_tests(self, name, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(codes, "CELLS", cells)
        code = _small(name)
        trees = _walk_trees(code)
        assert len(trees) >= 7
        for levels, order, s in trees:
            got = _flat(codes._tree(code, levels, order, s))
            assert got == _flat(_per_pattern_verdicts(
                code, _tree_patterns(code, levels, order, s)))
            assert all(type(v) is bool for v in got)

    @pytest.mark.parametrize("variant,s,want,checked,cells", [
        ("pmds", 1, "PMDS", None, None), ("pmds", 1, "PMDS", None, 97),
        ("sd", 2, "SD", None, None), ("sd", 2, "SD", None, 97),
        ("pmds", 2, "PMDS", 60_000, None),
    ])
    def test_classification_matches_per_pattern_rank_tests(
            self, variant, s, want, checked, cells, monkeypatch):
        # every pattern of a check goes through both paths, or the first
        # `checked` of them, block by block
        if cells is not None:
            monkeypatch.setattr(codes, "CELLS", cells)
        real = codes._tree
        seen = []

        def both(code, levels, order=(), s=0):
            patterns = _tree_patterns(code, levels, order, s)
            for got in real(code, levels, order, s):
                if len(seen) < (checked or float("inf")):
                    run = list(islice(patterns, len(got)))
                    assert got == _flat(_per_pattern_verdicts(code, run))
                    seen.extend(run)
                yield got

        monkeypatch.setattr(codes, "_tree", both)
        code = builders.pmds_fig(variant)
        assert classify_array_code(code, n=7, m=1, r=4, s=s) == want
        assert seen and len(seen) >= (checked or 0)
        if variant == "pmds" and checked is None:  # the walk read them all
            assert len(seen) == 7 ** 4 * comb(24, s) + 7 * comb(24, s)

    def test_working_set_stays_within_cells(self, monkeypatch):
        # a kernel call, a pivot step or an elimination, stacks at most
        # CELLS uint8 cells, unless it holds a single matrix
        shapes = {}
        for kernel in ("eliminate", "pivot"):
            real = getattr(gf, kernel)
            monkeypatch.setattr(gf, kernel, lambda field, m, *a, real=real,
                                kernel=kernel: shapes.setdefault(
                                    kernel, []).append(m.shape)
                                or real(field, m, *a))
        assert recoverable_fraction(builders.rdp(7), 3)[2] == (17260, 17296)
        assert loss_coefficients(builders.xorbas_16_10_5()) == \
            [1, 16, 120, 560, 1820, 4361, 7335] + [0] * 10
        assert classify_array_code(builders.pmds_fig("pmds"), 7, 1, 4, 1) \
            == "PMDS"
        assert loss_coefficients(builders.rdp(7), "column") == \
            [1, 8, 28] + [0] * 6
        assert len(shapes["pivot"]) > 20 and shapes["eliminate"]
        over = [s for s in shapes["pivot"] + shapes["eliminate"]
                if s[0] * s[1] * s[2] > codes.CELLS and s[2] > 1]
        assert over == []

    @pytest.mark.parametrize("make,coeffs", [
        (lambda: builders.rdp(7), [1, 8, 28] + [0] * 6),
        (lambda: builders.xcode(7), [1, 7, 21] + [0] * 5),
    ], ids=["rdp7", "xcode7"])
    def test_multi_symbol_columns_carry_their_own_last_column(
            self, make, coeffs, monkeypatch):
        # a unit of several symbols, the last one too, takes a pivot step
        # per symbol, each matrix on its own column; the steps carry every
        # column of _H and the zero one, and nothing else ranks a pattern
        # (the first walk also ranks the whole of _H, so it runs unrecorded)
        code, shapes = make(), {}
        assert loss_coefficients(code, "column") == coeffs
        for kernel in ("eliminate", "pivot"):
            real = getattr(gf, kernel)
            monkeypatch.setattr(gf, kernel, lambda field, m, *a, real=real,
                                kernel=kernel: shapes.setdefault(
                                    kernel, set()).add(m.shape[1])
                                or real(field, m, *a))
        assert loss_coefficients(code, "column") == coeffs
        assert shapes == {"pivot": {code.n + 1}}

    def test_tree_yields_one_verdict_per_pattern(self):
        # in the order of its patterns, for every size up to past the
        # units, tables of no unit too, and a fresh level after a walk
        code = builders.rdp(5)
        for units in ([], [(4,)], [(5,), (0,), (2,)],
                      [(1, 7), (6,), (8, 3), (2, 11), (0,)]):
            table = _table(code, units)
            for f in range(1, len(units) + 2):
                for levels in ([(table, False)] * f,
                               [(table, False)] * f + [(table, True)]):
                    patterns = list(_tree_patterns(code, levels))
                    got = _flat(codes._tree(code, levels))
                    assert len(got) == len(patterns)
                    assert got == _flat(_per_pattern_verdicts(code,
                                                              patterns))

    def test_prefix_without_a_last_yields_no_verdict(self, monkeypatch):
        # a size-2 column walk of rdp(5): the prefix of the next-to-last
        # column has one last, and the last column's prefix has none, so
        # it is never pivoted, and it adds no matrix to the kernel calls
        # that pivot every last unit of the size
        code = builders.rdp(5)
        parts = _parts(code, "column")
        calls = []
        real = gf.pivot
        monkeypatch.setattr(gf, "pivot", lambda field, m, cols, free: (
            calls.append(cols.tolist()) or real(field, m, cols, free)))
        got = _flat(codes._tree(code, [(_table(code, parts), False)] * 2))
        patterns = [sum(p, ()) for p in combinations(parts, 2)]
        assert len(got) == len(patterns) == comb(len(parts), 2)
        width = len(parts[0])
        assert calls[:width] == [[p[k] for p in parts[:-1]]
                                 for k in range(width)]
        assert calls[width:] == [[p[k] for i in range(len(parts))
                                  for p in parts[i + 1:]]
                                 for k in range(width)]
        monkeypatch.undo()  # the reference pivots too
        assert got == _flat(_per_pattern_verdicts(code, patterns))

    def test_dead_prefixes_fill_their_gaps_in_blocks(self):
        # xorbas tolerates any 4 erasures, and a symbol z in no equation
        # kills every pattern with it: the 286 patterns below z go out in
        # blocks of at most BLOCK, and no run of False verdicts longer than
        # BLOCK + 1 shares a block with a True one
        xorbas = builders.xorbas_16_10_5()
        data = xorbas.data_ids
        code = replace(xorbas, name="xorbas+z", column_map=None,
                       data_ids=data[:3] + ("z",) + data[3:])
        (_, total, verdicts), = codes._walk(code, "symbol", comb(17, 4),
                                            size=4)
        blocks = list(verdicts)
        assert total == comb(17, 4)
        assert _flat(blocks) == [3 not in c
                                 for c in combinations(range(17), 4)]
        for b in blocks:
            runs = "".join("x" if v else "." for v in b).split("x")
            assert len(b) <= codes.BLOCK if not any(b) else \
                max(map(len, runs)) <= codes.BLOCK + 1

    def test_empty_pattern_sets_are_rejected(self):
        with pytest.raises(ValueError, match="^m [+] s must be at least 1"):
            classify_array_code(builders.raid4k(6, 2), n=6, m=0, r=1, s=0)

    @pytest.mark.parametrize("m,s,want", [
        (7, 1, "PMDS"), (7, 0, "neither"), (1, 0, "PMDS"), (2, 0, "neither"),
        (6, 1, "neither"), (6, 2, "neither"),
    ])
    def test_edge_classifications(self, m, s, want):
        # s = 0 makes each base its own pattern; m = n leaves no symbol to
        # add, so the s extras have no pattern at all
        assert classify_array_code(builders.pmds_fig("pmds"), 7, m, 4, s) \
            == want


class TestRankBound:
    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_sizes_above_rank_make_no_kernel_call(self, name, granularity,
                                                  monkeypatch):
        code = _small(name)
        next(codes._walk(code, granularity, 0))  # sets the rank
        assert code._rank == gf.rank(code.field, code._H)
        above = _sizes_above_rank(code, granularity)
        units = len(_parts(code, granularity))
        calls, trees = [], []
        for kernel in ("eliminate", "pivot"):
            real = getattr(gf, kernel)
            monkeypatch.setattr(gf, kernel, lambda *a, real=real:
                                calls.append(a) or real(*a))
        tree = codes._tree
        monkeypatch.setattr(codes, "_tree", lambda code, levels, *a:
                            trees.append(len(levels)) or tree(code, levels))
        assert above == list(range(units - len(above) + 1, units + 1))
        for f in above:
            (_, total, verdicts), = codes._walk(code, granularity,
                                                float("inf"), size=f)
            # a size may hold millions of patterns: read its first blocks
            blocks = list(islice(verdicts, 4))
            lengths = [len(b) for b in blocks]
            assert lengths == [min(codes.BLOCK, total - i * codes.BLOCK)
                               for i in range(len(blocks))]
            assert not any(chain(*blocks))
        assert calls == [] and trees == []
        if above and above[0] > 1:  # the size below still builds its tree
            (_, _, verdicts), = codes._walk(code, granularity, float("inf"),
                                            size=above[0] - 1)
            next(verdicts)
            assert trees == [above[0] - 1]
            # and takes the kernel, unless one-symbol units of a size of
            # one or two, which read their verdicts off the columns of _H
            assert calls or above[0] <= 3 and units == code.n

    @pytest.mark.parametrize("name", sorted(builders.BUILDERS))
    def test_fractions_and_sets_match_per_pattern_rank_tests(self, name):
        code = _small(name)
        for granularity in ("symbol", "column"):
            parts = _parts(code, granularity)
            counts = []
            for f in range(1, len(parts) + 1):
                if comb(len(parts), f) > 5000:
                    continue
                patterns = [sum(p, ()) for p in combinations(parts, f)]
                good = sum(_flat(_per_pattern_verdicts(code, patterns)))
                assert recoverable_fraction(code, f, granularity)[2] == \
                    (good, len(patterns))
                counts.append(good)
            assert counts
            if len(parts) > 12:
                continue
            want, f = [0], 1
            while f <= len(parts):
                sets = list(combinations(range(len(parts)), f))
                ok = _flat(_per_pattern_verdicts(
                    code, [sum((parts[u] for u in c), ()) for c in sets]))
                found = [_subset_mask(c) for c, v in zip(sets, ok) if v]
                if not found:
                    break
                want += found
                f += 1
            assert codes.recoverable_sets(code, granularity) == want

    def test_xorbas_loss_coefficients_skip_sevens(self, monkeypatch):
        real, sizes = codes._tree, set()

        def noted(code, levels, *extras):
            sizes.add(len(levels))
            return real(code, levels, *extras)

        monkeypatch.setattr(codes, "_tree", noted)
        code = builders.xorbas_16_10_5()
        assert loss_coefficients(code) == \
            [1, 16, 120, 560, 1820, 4361, 7335] + [0] * 10
        assert code._rank == 6
        assert sizes == {1, 2, 3, 4, 5, 6}

    def test_budget_is_charged_for_skipped_sizes(self):
        code = builders.xorbas_16_10_5()
        spend = sum(comb(16, f) for f in range(1, 8))  # sizes 1 to 7
        assert loss_coefficients(code, budget=spend)[7] == 0
        with pytest.raises(BudgetExceeded, match="^%d patterns exceed the "
                           "budget of %d$" % (spend, spend - 1)):
            loss_coefficients(code, budget=spend - 1)
        mds = builders.raid4k(11, 3)
        assert recoverable_fraction(mds, 4, budget=330)[2] == (0, 330)
        with pytest.raises(BudgetExceeded,
                           match="^330 patterns exceed the budget of 329$"):
            recoverable_fraction(mds, 4, budget=329)

    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    def test_fraction_beyond_the_units_is_a_value_error(self, granularity):
        code = builders.raid5(3)
        for f in (4, 0):
            with pytest.raises(ValueError, match="^f=%d is outside 1..3, the "
                               "%s count of code raid5[(]3[)]$"
                               % (f, granularity)):
                recoverable_fraction(code, f, granularity)
        assert recoverable_fraction(code, 3, granularity)[2] == (0, 1)


def _base_view_recoverable(code, erased):
    """The per-pattern two-phase decoder that `codes._local_global` batches,
    as (verdict, whether a base-view rank test ran, peel passes)."""
    h, stored, virtuals = code._base
    support = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in h]
    passes = 0
    while True:
        # phase 1: peel own equations (local repairs)
        erased = codes._peel(code._support, erased)
        passes += 1
        if not erased:
            return True, passes > 1, passes
        # phase 2: joint solve on the base view with virtual symbols; the
        # base decode recovers its own symbols, which are dropped to re-peel
        recovered = erased & stored
        base_erased = recovered | sum(bit for bit, parts in virtuals
                                      if erased & parts)
        rows = [i for i, r in enumerate(support) if r & base_erased]
        cols = codes._bits(base_erased)
        if not recovered:
            return False, passes > 1, passes
        if len(rows) < len(cols) or \
                gf.rank(code.field, h[rows][:, cols]) < len(cols):
            return False, True, passes
        erased ^= recovered


def _pyramid_with_lone_symbol():
    """pyramid_8_2_2 plus a data symbol in no equation: a pattern with it
    passes the base solve and fails the re-peel."""
    code = builders.pyramid_8_2_2()
    return replace(code, name="pyramid+z", data_ids=code.data_ids + ("z",),
                   column_map=None, row_map=None)


class TestLocalGlobalDecoder:
    @pytest.mark.parametrize("block", [None, 1], ids=["BLOCK", "1"])
    @pytest.mark.parametrize("granularity", ["symbol", "column"])
    @pytest.mark.parametrize("make", [
        builders.pyramid_8_2_2, builders.pyramid_12_2_2,
        _pyramid_with_lone_symbol,
    ], ids=["pyramid_8_2_2", "pyramid_12_2_2", "lone_symbol"])
    def test_matches_per_pattern_decoder(self, make, granularity, block,
                                         monkeypatch):
        if block is not None:
            monkeypatch.setattr(codes, "BLOCK", block)
        code = make()
        next(codes._walk(code, granularity, 0))  # sets the rank
        stacks = []
        eliminate = gf.eliminate
        monkeypatch.setattr(gf, "eliminate", lambda field, m, ncols: (
            stacks.append(m.shape[2]) or eliminate(field, m, ncols)))
        units = code.columns() if granularity == "column" else code.symbols
        masks = [codes._expand(code, [u], granularity) for u in units]
        outcomes = set()
        for f in range(1, 6):
            want = [_base_view_recoverable(code, sum(p))
                    for p in combinations(masks, f)]
            del stacks[:]
            (_, _, verdicts), = codes._walk(code, granularity, float("inf"),
                                            "local-global", f)
            got = _flat(verdicts)
            assert got == [v for v, _, _ in want]
            assert all(type(v) is bool for v in got)
            # one kernel call per block with a rank test, stacking them all
            tests = [sum(t for _, t, _ in want[i:i + codes.BLOCK])
                     for i in range(0, len(want), codes.BLOCK)]
            assert stacks == [t for t in tests if t]
            outcomes |= {(v, passes) for v, _, passes in want}
        # the first peel passes and fails; after a base solve the re-peel
        # passes (and, with the lone symbol, fails); the base view recovers
        # every erased symbol it touches, so no pattern is peeled thrice
        want = {(True, 1), (False, 1), (True, 2)}
        if make is _pyramid_with_lone_symbol:
            want.add((False, 2))
        assert outcomes == want


class TestEnumerationMemory:
    def test_warm_enumerations_hold_no_freed_tuples(self):
        # a freed tuple goes to CPython's free list for its size, which only
        # a full collection empties; a walker that builds a tuple per prefix
        # from an iterator of unknown length (10 slots, then shrunk) leaves
        # those lists full of memory allocated during the pass
        xorbas, pmds = builders.xorbas_16_10_5(), builders.pmds_fig("pmds")

        def enumerate_both():
            assert loss_coefficients(xorbas) == \
                [1, 16, 120, 560, 1820, 4361, 7335] + [0] * 10
            assert classify_array_code(pmds, 7, 1, 4, 1) == "PMDS"

        enumerate_both()
        gc.disable()
        tracemalloc.start()
        try:
            enumerate_both()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 32 * 1024


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
