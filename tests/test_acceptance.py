"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them).  Tolerances are pinned here,
not configurable.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from raidlab import builders, codes
from raidlab.ctmc import mean_time_to_absorption, mttf_by_quadrature, \
    reliability_curve
from raidlab.declustering import CopysetScheme, bibd_10_4_2, copyset_pdl, \
    copysets, nrp_layout, rebuild_reads, verify_bibd
from raidlab.disk import MomentSet, Deterministic
from raidlab.queueing import (forkjoin_response, harmonic,
                              mg1_head_of_line_wait, mg1_wait,
                              satf_service_time)
from raidlab.rebuild import degraded_load_increase, vacation_stats, vsm_wait
from raidlab.reliability import (LseParams, ReliabilityParams, angus_mttdl,
                                 chen_mttdl, diffraid_aging,
                                 diffraid_replacement_ages,
                                 mirrored_coefficients, mttdl_with_lse, p_uf,
                                 pseg, raid5_chain, raid5_closed_form,
                                 raid5_lse_chain, shortcut_compare, tmr,
                                 tmr_chain)
from raidlab.sim import sim_copyset_loss, sim_generic_mttdl, sim_queue


def ok(criterion, detail):
    print("ACCEPTANCE %-2s PASS  %s" % (criterion, detail))


# Resch validation rows: (n, data, MTTF, Chen, Angus, Simul).  The published
# table's row-5 MTTF reads 200 and the Chen entry 2.511E7; the S/C columns
# only reconcile with MTTF=150 and Chen=2.511E6, which is what is used here.
RESCH_ROWS = [
    (10, 10, 2000.0, 2.000e2, 2.000e2, 1.988e2),
    (10, 9, 2000.0, 4.444e4, 4.467e4, 4.488e4),
    (10, 8, 1500.0, 4.688e6, 9.438e6, 9.446e6),
    (10, 7, 500.0, 1.240e7, 7.591e7, 7.786e7),
    (10, 6, 150.0, 2.511e6, 6.441e7, 6.407e7),
]


def test_criterion_01_resch_closed_forms_and_simulation():
    t0 = time.time()
    for n, k, mttf, chen_want, angus_want, _ in RESCH_ROWS:
        chen = chen_mttdl(n, n - k, mttf, 1.0)
        assert chen == pytest.approx(chen_want, rel=5e-4), (n, k)
        angus = angus_mttdl(n, k, mttf, 1.0)
        assert angus == pytest.approx(angus_want, rel=5e-4), (n, k)
    covered = 0
    for row, (n, k, mttf, _, _, simul) in enumerate(RESCH_ROWS):
        rep = sim_generic_mttdl(n, 1.0 / mttf, 1.0, regime="angus",
                                tolerance=n - k, reps=10_000,
                                seed=42 + row)
        lo, hi = rep.ci
        covered += lo <= simul <= hi
    assert covered >= 4
    elapsed = time.time() - t0
    assert elapsed <= 180.0
    ok(1, "five closed-form rows exact; %d/5 simulation CIs cover the "
          "published estimates in %.1fs" % (covered, elapsed))


def test_criterion_02_copyset_arithmetic():
    random_scheme = CopysetScheme(9, 3, 4, scheme="random")
    p_rand, n_rand = copyset_pdl(random_scheme)
    assert n_rand == 54
    assert p_rand == Fraction(54, 84)
    perms = [list(range(9)), [0, 3, 6, 1, 4, 7, 2, 5, 8]]
    cs_scheme = CopysetScheme(9, 3, 4, scheme="copyset", permutations=perms)
    p_cs, n_cs = copyset_pdl(cs_scheme)
    assert n_cs == 6
    assert p_cs == Fraction(6, 84)
    # Monte-Carlo agreement
    mc_rand = sim_copyset_loss(random_scheme, fail_count=3, reps=30_000,
                               seed=3)
    assert abs(mc_rand.estimate - 54 / 84) <= 3 * mc_rand.half_width
    mc_cs = sim_copyset_loss(cs_scheme, fail_count=3)
    assert mc_cs.extras.get("exact")
    assert mc_cs.estimate == pytest.approx(6 / 84)
    ok(2, "random 54/84 and copyset 6/84, by enumeration and Monte-Carlo")


def test_criterion_03_pyramid_table():
    pyramid = builders.pyramid_8_2_2()
    counts = {}
    for f in (1, 2, 3, 4):
        _, _, (good, total) = codes.recoverable_fraction(
            pyramid, f, decoder="local-global")
        counts[f] = (good, total)
    assert counts[1] == (12, 12)
    assert counts[2] == (66, 66)
    assert counts[3] == (220, 220)
    assert counts[4] == (341, 495)
    assert round(100 * 341 / 495, 2) == 68.89
    mds = builders.raid4k(11, 3)
    for f in (1, 2, 3):
        assert codes.recoverable_fraction(mds, f)[0] == 1.0
    assert codes.recoverable_fraction(mds, 4)[0] == 0.0
    ok(3, "pyramid 100/100/100/68.89% (341/495 exact); 11-symbol MDS "
          "100/100/100/0")


def test_criterion_04_was_lrc():
    t0 = time.time()
    code = builders.was_lrc_6_2_2()
    frac3, _, _ = codes.recoverable_fraction(code, 3)
    assert frac3 == 1.0
    frac4, _, _ = codes.recoverable_fraction(code, 4)
    assert abs(frac4 - 0.86) <= 0.005
    assert time.time() - t0 < 30.0
    ok(4, "three-failure fraction 1.0; four-failure fraction %.4f" % frac4)


def test_criterion_05_rdp_and_xcode():
    rdp = builders.rdp(5)
    pairs = list(combinations(rdp.columns(), 2))
    assert len(pairs) == 15
    assert all(codes.is_recoverable(rdp, p, "column") for p in pairs)
    xors = codes.encode_xor_count(rdp)
    assert xors == 24 == 2 * 5 ** 2 - 6 * 5 + 4
    n = 5 - 1
    assert xors / ((5 - 1) ** 2) == pytest.approx(2 - 2 / n)
    xc = builders.xcode(7)
    xpairs = list(combinations(xc.columns(), 2))
    assert len(xpairs) == 21
    assert all(codes.is_recoverable(xc, p, "column") for p in xpairs)
    ok(5, "rdp(5): 15/15 pairs, 24 XORs, ratio 2-2/n; xcode(7): 21/21 pairs")


def test_criterion_06_grid_rectangles():
    grid = builders.hvpc(4, 4)
    units = list(grid.symbols)
    for pattern in combinations(units, 3):
        assert codes.is_recoverable(grid, pattern)
    rect = 0
    fatal = 0
    for pattern in combinations(units, 4):
        rows = {grid.row_map[s] for s in pattern}
        cols = {grid.column_map[s] for s in pattern}
        is_rect = len(rows) == 2 and len(cols) == 2
        if not codes.is_recoverable(grid, pattern):
            fatal += 1
            assert is_rect, pattern
        elif is_rect:
            pytest.fail("recoverable rectangle %r" % (pattern,))
    assert fatal == math.comb(5, 2) ** 2 == 100
    assert codes.erasure_tolerance(grid) == (1 + 1) * (1 + 1) - 1
    ok(6, "all 2300 3-sets recoverable; fatal 4-sets are exactly the 100 "
          "rectangles")


def _ci_overlap(analytic, sim_mean, sim_hw, rel=0.03):
    band = max(rel * analytic, sim_hw)
    return abs(analytic - sim_mean) <= band


def test_criterion_07_queueing_oracles():
    svc = MomentSet.exponential(10.0)
    for rho in (0.3, 0.5, 0.7):
        lam = rho / 10.0  # per ms
        want = mg1_wait(lam * 1000.0, svc).wait
        got = sim_queue("mg1", {"arrival_rate": lam, "service": ("exp", 10.0)},
                        n_customers=400_000, seed=int(rho * 100))
        assert _ci_overlap(want, got["wait"], got["wait_hw"]), ("mg1", rho)

        want_pr = mg1_head_of_line_wait(lam * 1000.0, svc, rho / 2.0)
        got_pr = sim_queue(
            "mg1_priority",
            {"arrival_rate_high": lam / 2, "arrival_rate_low": lam / 2,
             "service_high": ("exp", 10.0), "service_low": ("exp", 10.0)},
            n_customers=400_000, seed=int(rho * 100) + 1)
        assert _ci_overlap(want_pr, got_pr["wait_high"],
                           got_pr["wait_high_hw"]), ("priority", rho)

        vac = vacation_stats(Deterministic(12.0), Deterministic(8.0),
                             lam * 1000.0)
        want_vsm = vsm_wait(lam * 1000.0, svc, vac).wait
        got_vsm = sim_queue(
            "vsm", {"arrival_rate": lam, "service": ("exp", 10.0),
                    "vacation1": ("det", 12.0), "vacation2": ("det", 8.0)},
            n_customers=400_000, seed=int(rho * 100) + 2)
        assert _ci_overlap(want_vsm, got_vsm["wait"], got_vsm["wait_hw"]), \
            ("vsm", rho)

        r_mean = 10.0 / (1 - rho)
        want_fj = forkjoin_response("flatto-hahn", 2, rho=rho, resp=r_mean)
        got_fj = sim_queue("fj", {"arrival_rate": lam, "ways": 2,
                                  "service": ("exp", 10.0)},
                           n_customers=300_000, seed=int(rho * 100) + 3)
        assert _ci_overlap(want_fj, got_fj["response"],
                           got_fj["response_hw"]), ("fj", rho)
    # harmonic-maximum upper bound at rho = 0.5
    r_mean = 10.0 / (1 - 0.5)
    for ways in (2, 4, 8):
        got = sim_queue("fj", {"arrival_rate": 0.05, "ways": ways,
                               "service": ("exp", 10.0)},
                        n_customers=200_000, seed=900 + ways)
        bound = harmonic(ways) * r_mean
        assert got["response"] <= bound + 2 * got["response_hw"], ways
    ok(7, "M/G/1, priority, vacationing-server and 2-way fork-join within "
          "3% of DES at rho in {0.3, 0.5, 0.7}; harmonic max bounds "
          "2/4/8-way means")


def test_criterion_08_endpoint_laws():
    for n in (4, 8, 16, 100):
        assert degraded_load_increase(n, 0.0) == pytest.approx(4.0 / 3.0)
        assert degraded_load_increase(n, 1.0) == pytest.approx(2.0)
    assert satf_service_time(7.2, 32) == pytest.approx(3.6)
    m = codes.repair_metrics(builders.azure_lrc(10, 6, 3))
    assert m["ARC"] == pytest.approx(3.6)
    assert m["NRC"] == pytest.approx(6.0)
    assert m["DRC"] == pytest.approx(3.0)
    ok(8, "LoadIncr(0)=4/3, LoadIncr(1)=2; SATF halves at q=32; "
          "ARC/NRC/DRC = 3.6/6/3")


def test_criterion_09_ctmc_engine():
    params = ReliabilityParams(disks=8, delta=1e-5, mu=1 / 17.8)
    r_of_t, mttdl, _ = raid5_closed_form(params)
    chain = raid5_chain(params)
    for t in np.linspace(0.0, 5 * mttdl, 11):
        got = reliability_curve(chain, [t], tol=1e-11)[0]
        assert got == pytest.approx(r_of_t(t), abs=1e-8), t
    total, _, _ = mean_time_to_absorption(chain)
    n = params.disks - 1
    want = ((2 * n + 1) * params.delta + params.mu) / \
        (n * (n + 1) * params.delta ** 2)
    assert total == pytest.approx(want, rel=1e-9)
    lse = LseParams(p_bit=1e-14, length=128, interleaves=8,
                    capacity_bytes=300 * 2 ** 30)
    p_seg = pseg("none", "independent", lse)
    lse_chain = raid5_lse_chain(params, lse, p_seg)
    lse_total, _, _ = mean_time_to_absorption(lse_chain)
    assert lse_total == pytest.approx(
        mttdl_with_lse("raid5", params, lse, "none"), rel=1e-9)
    delta = 1e-4
    for variant, want_mttf in (("tmr", 5 / (6 * delta)),
                               ("tmr_simplex", 4 / (3 * delta))):
        ch = tmr_chain(delta, variant)
        solve, _, _ = mean_time_to_absorption(ch)
        assert solve == pytest.approx(want_mttf, rel=1e-9)
        quad = mttf_by_quadrature(ch, tol=1e-7)
        assert quad == pytest.approx(want_mttf, rel=1e-6)
        assert tmr(delta, variant)["mttf"] == pytest.approx(want_mttf,
                                                            rel=1e-12)
    ok(9, "uniformization matches the closed-form curve to 1e-8; mean-time "
          "solves match both closed forms to 1e-9; TMR 5/(6d) and simplex "
          "4/(3d) by solve and quadrature")


def test_criterion_10_idr_fixture():
    lse = LseParams(p_bit=1e-14, length=128, interleaves=8,
                    capacity_bytes=300 * 2 ** 30)
    targets = {
        ("none", "p_seg"): 5.2e-9,
        ("ipc", "p_seg"): 1.6e-18,
        ("none", "p_uf"): 1.5e-1,
        ("ipc", "p_uf"): 6.1e-11,
    }
    for scheme in ("none", "ipc"):
        p_seg = pseg(scheme, "independent", lse)
        factor = p_seg / targets[(scheme, "p_seg")]
        assert 1 / 1.15 <= factor <= 1.15, (scheme, "p_seg", p_seg)
        puf = p_uf(lse, 8, 1, p_seg)
        factor = puf / targets[(scheme, "p_uf")]
        assert 1 / 1.15 <= factor <= 1.15, (scheme, "p_uf", puf)
    ok(10, "segment and rebuild-failure probabilities within x1.15 of the "
           "published fixture values")


def test_criterion_11_mirrored_coefficients_and_ranking():
    for org in ("bm", "grd", "cd", "id"):
        for n in (4, 6, 8, 10, 12):
            clusters = 2
            code = builders.mirrored_org(org, n, clusters=clusters)
            counts = codes.loss_coefficients(code, "column")
            for i in range(n + 1):
                want = mirrored_coefficients(org, n, i, clusters=clusters)
                assert counts[i] == want, (org, n, i)
    a = codes.loss_coefficients(builders.sspiral())
    assert math.comb(8, 4) - a[4] == 14 == math.comb(8, 4) // 5
    orgs = ["raid5", "bm", "cd", "grd", "id", "raid6", "lsi", "raid7",
            "sspiral"]
    ranked = [org for org, _, _, _ in shortcut_compare(orgs, 8, 0.025)]
    # leading terms at eps = 0.025, N = 8, evaluated independently
    eps = 0.025
    terms = {
        "raid5": math.comb(8, 2) * eps ** 2,
        "bm": 4 * eps ** 2,
        "cd": 8 * eps ** 2,
        "grd": 8 * 7 / 4 * eps ** 2,
        "id": 8 * (4 - 1) / 2 * eps ** 2,
        "raid6": math.comb(8, 3) * eps ** 3,
        "lsi": (math.comb(8, 3) - 4) * eps ** 3,
        "raid7": math.comb(8, 4) * eps ** 4,
        "sspiral": math.comb(8, 4) / 5 * eps ** 4,
    }
    want = sorted(terms, key=lambda o: terms[o])
    assert ranked == want
    ok(11, "closed-form survivable-set counts equal enumeration for N<=12; "
           "14 fatal 4-sets; leading-term ranking reproduced")


def test_criterion_12_bibd_and_nrp():
    layout = bibd_10_4_2()
    rep = verify_bibd(layout)
    assert rep["ok"], rep["violations"]
    assert rep["b"] * rep["k"] == 15 * 4 == 10 * 6
    assert rep["r"] * (rep["k"] - 1) == 6 * 3 == 2 * 9
    for failed in range(10):
        reads = rebuild_reads(layout, failed)
        assert all(r == 2 for d, r in enumerate(reads) if d != failed)
    perm = [0, 9, 7, 6, 2, 1, 5, 3, 4, 8]
    nrp = nrp_layout(10, 4, rows=2, perms=[perm])
    want_rows = [
        [(0, 0), (1, 0), (1, 0), (1, 1), (2, 0), (1, 0), (0, 1), (0, 0),
         (2, 0), (0, 0)],
        [(2, 0), (3, 1), (3, 0), (4, 0), (4, 0), (4, 0), (3, 0), (3, 0),
         (4, 1), (2, 1)],
    ]
    got = [[(g, int(p)) for g, p in row] for row in nrp.assignment]
    assert got == want_rows
    ok(12, "design identities hold; every rebuild reads 2 strips per "
           "survivor; the permuted layout matches the worked figure "
           "cell-for-cell")


def test_criterion_13_diffraid():
    ratios = diffraid_aging([70, 10, 10, 10])
    assert ratios[0][1] == pytest.approx(2.0, abs=0)
    # the published converged ages correspond to the five-device (80,5,5,5,5)
    # split; the four-device (70,10,10,10) split converges to (6000, 4000,
    # 2000) instead (see the decisions ledger)
    got = diffraid_replacement_ages([80, 5, 5, 5, 5], 10_000.0)
    want = (5750.0, 4312.5, 2875.0, 1437.5)
    for g, w in zip(got, want):
        assert abs(g - w) / w <= 1e-3
    ok(13, "aging ratio exactly 2; replacement ages converge to "
           "(5750, 4312.5, 2875, 1437.5) within 0.1%")
