import math
from itertools import combinations

import numpy as np
import pytest

from raidlab.declustering import (
    CopysetScheme, bibd_10_4_2, clustered_utilizations, copyset_pdl,
    copysets, nrp_layout, parity_columns, rebuild_reads, scatter_widths,
    shifted_layout, verify_bibd,
)


class TestBibd:
    def test_identities(self):
        rep = verify_bibd(bibd_10_4_2())
        assert rep["ok"], rep["violations"]
        assert rep["r"] == 6
        assert rep["b"] == 15
        assert rep["b"] * rep["k"] == 10 * rep["r"]           # 15*4 = 10*6
        assert rep["r"] * (rep["k"] - 1) == rep["L"] * 9      # 6*3 = 2*9

    def test_rebuild_balance(self):
        layout = bibd_10_4_2()
        for failed in range(10):
            reads = rebuild_reads(layout, failed)
            expect = [2] * 10
            expect[failed] = 0
            assert reads == expect

    def test_trivial_full_stripe_identity(self):
        # k = n makes L = r in the identities
        # r(k-1) = L(n-1) with k = n forces L = r
        n = k = 6
        for r in (1, 2, 5):
            assert r * (k - 1) == r * (n - 1)

    def test_distinct_disks(self):
        assert bibd_10_4_2().distinct_disk_violations() == []


class TestNrp:
    PAPER_PERM = [0, 9, 7, 6, 2, 1, 5, 3, 4, 8]

    def test_reproduces_worked_figure(self):
        layout = nrp_layout(10, 4, rows=2, perms=[self.PAPER_PERM])
        # expected final allocation, groups numbered from 0, parity last
        # row 1: D1 D5 D4 P(4:6) D7 D6 P(1:3) D3 D8 D2
        want_groups_r0 = [0, 1, 1, 1, 2, 1, 0, 0, 2, 0]
        want_parity_r0 = [False, False, False, True, False, False, True,
                          False, False, False]
        got = layout.assignment[0]
        assert [g for g, _ in got] == want_groups_r0
        assert [p for _, p in got] == want_parity_r0
        # row 2: D9 P(10:12) D12 D14 D15 D13 D11 D10 P(13:15) P(7:9)
        want_groups_r1 = [2, 3, 3, 4, 4, 4, 3, 3, 4, 2]
        want_parity_r1 = [False, True, False, False, False, False, False,
                          False, True, True]
        got = layout.assignment[1]
        assert [g for g, _ in got] == want_groups_r1
        assert [p for _, p in got] == want_parity_r1

    def test_batch_size_is_gcd(self):
        layout = nrp_layout(10, 4, rows=4, seed=3)
        # groups straddling a two-row batch stay on distinct disks
        assert layout.distinct_disk_violations() == []

    def test_divisible_case_single_permutation(self):
        layout = nrp_layout(12, 4, rows=4, seed=9)
        # one shared permutation: every row permuted identically, so the
        # initial column pattern of groups-per-row repeats
        cols0 = [layout.assignment[0][d][0] for d in range(12)]
        cols1 = [layout.assignment[1][d][0] for d in range(12)]
        shift = {g0: g1 for g0, g1 in zip(cols0, cols1)}
        assert all(shift[g] == g + 3 for g in set(cols0))

    def test_distinct_disk_property_random_seeds(self):
        # generation itself asserts the property; exercise 1000 seeds
        for seed in range(800):
            nrp_layout(10, 4, rows=4, seed=seed)
        for seed in range(200):
            nrp_layout(9, 3, rows=6, seed=seed)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nrp_layout(4, 10)
        with pytest.raises(ValueError):
            nrp_layout(10, 4, rows=3)


class TestShifted:
    def test_coprime_parity_sequence(self):
        layout = shifted_layout(10, 3)
        cols = parity_columns(layout)
        # one-indexed the sequence reads (1,4,7,10,3,6,9,2,5,8)
        want = [c - 1 for c in (1, 4, 7, 10, 3, 6, 9, 2, 5, 8)]
        assert cols[:10] == want

    def test_coprime_11_4_no_shift(self):
        layout = shifted_layout(11, 4)
        # gcd = 1: a single variant, groups simply wrap
        assert layout.distinct_disk_violations() == []
        counts = layout.parity_counts()
        assert max(counts) - min(counts) <= 1

    def test_10_4_second_block_shifted(self):
        layout = shifted_layout(10, 4, parity_position="last")
        # segment 0 rows: parity of group 0 at col 3; segment 1 shifted left
        g0 = [layout.assignment[0][d] for d in range(10)]
        assert g0[3] == (0, True)
        # in the shifted segment the first group's parity lands one left
        seg1 = [layout.assignment[2][d] for d in range(10)]
        assert seg1[2] == (5, True)

    def test_parity_balance_over_period(self):
        for n, g in ((10, 4), (15, 6), (12, 4), (10, 3)):
            layout = shifted_layout(n, g)
            counts = layout.parity_counts()
            assert max(counts) - min(counts) <= 1, (n, g, counts)

    def test_distinct_disks_in_groups(self):
        for n, g in ((10, 4), (15, 6), (10, 3), (11, 4)):
            assert shifted_layout(n, g).distinct_disk_violations() == []


class TestClusteredLoad:
    def test_full_stripe_reduces_to_raid5(self):
        # G = N: alpha = 1 and the read load matches the mirrored doubling
        rho_r, rho_w, alpha = clustered_utilizations(8, 8, 100.0, 1.0, 10.0)
        assert alpha == 1.0
        assert rho_r == pytest.approx(100.0 / 7 * (14 / 8) * 10.0)

    def test_mirrored_like_minimal_alpha(self):
        _, _, alpha = clustered_utilizations(9, 2, 10.0, 0.5, 10.0)
        assert alpha == pytest.approx(1.0 / 8.0)

    def test_read_only_scaling_first_principles(self):
        # on-demand reconstruction adds G-1 reads spread over N-1 disks:
        # per-disk read load scales by 1 + alpha
        n, g = 10, 4
        lam, t = 50.0, 8.0
        rho_r, _, alpha = clustered_utilizations(n, g, lam, 1.0, t)
        normal = lam * t / n
        firstprinciples = normal * (1 + alpha)
        assert rho_r == pytest.approx(firstprinciples, rel=1e-12)


class TestCopysets:
    def test_paper_random_counts(self):
        scheme = CopysetScheme(9, 3, 4, scheme="random")
        sets = copysets(scheme)
        assert len(sets) == 54
        p, count = copyset_pdl(scheme)
        assert count == 54
        assert p == pytest.approx(54 / 84)
        assert p == pytest.approx(0.64, abs=0.005)

    def test_paper_copyset_counts(self):
        perms = [list(range(9)), [0, 3, 6, 1, 4, 7, 2, 5, 8]]
        scheme = CopysetScheme(9, 3, 4, scheme="copyset",
                               permutations=perms)
        sets = copysets(scheme)
        assert len(sets) == 6
        assert frozenset({0, 1, 2}) in sets
        assert frozenset({0, 3, 6}) in sets
        p, _ = copyset_pdl(scheme)
        assert p == pytest.approx(6 / 84)
        assert p == pytest.approx(0.07, abs=0.005)

    @pytest.mark.parametrize("perms,error", [
        ([range(9)] * 2, "share partners"),
        ([[0, 0, 0, 1, 1, 1, 2, 2, 2], range(9)], "order the nodes"),
    ], ids=["shared-partners", "not-a-permutation"])
    def test_explicit_permutations_checked(self, perms, error):
        scheme = CopysetScheme(9, 3, 4, scheme="copyset", permutations=perms)
        with pytest.raises(ValueError, match=error):
            copysets(scheme)

    def test_full_replication_single_copyset(self):
        scheme = CopysetScheme(6, 6, 5, scheme="copyset")
        p, count = copyset_pdl(scheme)
        assert count == 1
        assert p == 1.0

    def test_scatter_width_exact(self):
        scheme = CopysetScheme(9, 3, 4, scheme="copyset", seed=5)
        assert scatter_widths(scheme) == [4] * 9
        scheme = CopysetScheme(15, 3, 6, scheme="copyset", seed=2)
        assert scatter_widths(scheme) == [6] * 15

    # the drawn copysets, pinned: a change to the rejection loop that
    # changes a draw keeps counts and scatter widths but fails here
    @pytest.mark.parametrize("n,r,s,seed,want", [
        (9, 3, 4, 0, [[0, 1, 7], [0, 5, 6], [1, 4, 8], [2, 3, 7], [2, 4, 5],
                      [3, 6, 8]]),
        (9, 3, 4, 1, [[0, 1, 7], [0, 4, 6], [1, 2, 3], [2, 4, 5], [3, 6, 8],
                      [5, 7, 8]]),
        (15, 3, 6, 0, [[0, 1, 7], [0, 3, 14], [0, 4, 10], [1, 8, 13],
                       [1, 9, 11], [2, 3, 11], [2, 4, 6], [2, 10, 13],
                       [3, 10, 12], [4, 7, 12], [5, 6, 8], [5, 7, 14],
                       [5, 9, 13], [6, 9, 12], [8, 11, 14]]),
    ], ids=["9-3-4-seed0", "9-3-4-seed1", "15-3-6-seed0"])
    def test_drawn_copysets_pinned(self, n, r, s, seed, want):
        scheme = CopysetScheme(n, r, s, scheme="copyset", seed=seed)
        assert sorted(sorted(cs) for cs in copysets(scheme)) == want

    def test_non_integral_p_rejected(self):
        with pytest.raises(ValueError) as err:
            CopysetScheme(9, 3, 5, scheme="copyset")
        assert "multiple" in str(err.value)

    def test_permutation_count_relation(self):
        # S = P (R - 1)
        scheme = CopysetScheme(12, 3, 4, scheme="copyset", seed=1)
        assert scheme.n_permutations == 2
        assert len(copysets(scheme)) == 2 * 12 // 3


class TestIdealPredicateAndSerialization:
    def test_ideal_predicate_families(self):
        from raidlab.declustering import placement_ideal_exists
        # full-stripe and near-full qualify when divisibility holds
        assert placement_ideal_exists(6, 6, 6)
        assert placement_ideal_exists(7, 6, 6)
        # k=2 needs r = 1 mod (n-1) adjusted for k | r
        assert placement_ideal_exists(10, 2, 10)
        assert not placement_ideal_exists(10, 2, 2)
        # the two sporadic families
        assert placement_ideal_exists(5, 3, 9)
        assert placement_ideal_exists(7, 4, 4)
        # divisibility failures
        assert not placement_ideal_exists(10, 4, 6)
        # outside the admissible (k, n) families
        assert not placement_ideal_exists(33, 12, 96)

    def test_layout_json_round_trip(self):
        import json
        from raidlab.declustering import layout_from_json, layout_to_json
        layout = bibd_10_4_2()
        back = layout_from_json(json.loads(json.dumps(layout_to_json(layout))))
        assert back.assignment == layout.assignment
        assert verify_bibd(back)["ok"]
