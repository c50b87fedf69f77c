import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from raidlab import builders, codes
from raidlab.ctmc import mean_time_to_absorption, reliability_curve
from raidlab.reliability import (
    LseParams, PlacementParams, ReliabilityParams, angus_mttdl,
    birth_death_mttdl, chen_mttdl, diffraid_aging, diffraid_replacement_ages,
    eafdl, epsilon_from_horizon, iliadis_raid51_mttdl, mirrored_coefficients,
    mirrored_reliability, mttdl_with_lse, p_uf, pseg, raid15_mttdl,
    raid5_closed_form, raid5_chain, raid_reliability_no_repair, scrub_model,
    shortcut_compare, tmr, tmr_chain, xin_raid51_mttdl,
)


class TestNoRepair:
    def test_k0_is_power(self):
        assert raid_reliability_no_repair(5, 0, 0.9) == pytest.approx(0.9 ** 5)

    def test_perfect_disks(self):
        assert raid_reliability_no_repair(7, 2, 1.0) == pytest.approx(1.0)

    def test_enumeration_oracle(self):
        # exhaustive 2^5 state enumeration for N=5, k=1
        r = 0.9
        total = 0.0
        for bits in range(32):
            failed = bin(bits).count("1")
            prob = r ** (5 - failed) * (1 - r) ** failed
            if failed <= 1:
                total += prob
        assert raid_reliability_no_repair(5, 1, r) == pytest.approx(total)


class TestRaid5ClosedForm:
    def test_no_repair_two_failure_chain(self):
        prm = ReliabilityParams(disks=8, delta=1e-5, mu=0.0)
        _, mttdl, _ = raid5_closed_form(prm)
        n = 7
        # no repair: expected time of first + second failure
        want = 1 / ((n + 1) * 1e-5) + 1 / (n * 1e-5)
        assert mttdl == pytest.approx(want, rel=1e-12)
        assert mttdl == pytest.approx((2 * n + 1) / (n * (n + 1) * 1e-5))

    def test_curve_matches_ctmc(self):
        prm = ReliabilityParams(disks=8, delta=1e-5, mu=1 / 17.8)
        r_of_t, mttdl, approx = raid5_closed_form(prm)
        from raidlab.ctmc import reliability_curve
        chain = raid5_chain(prm)
        for t in (0.0, mttdl / 10, mttdl, 3 * mttdl):
            assert reliability_curve(chain, [t], tol=1e-11)[0] == \
                pytest.approx(r_of_t(t), abs=1e-8)

    def test_high_repair_approximation(self):
        prm = ReliabilityParams(disks=8, delta=1e-6, mu=1.0)
        _, mttdl, _ = raid5_closed_form(prm)
        n = 7
        assert mttdl == pytest.approx((1e6) ** 2 / (n * (n + 1) * 1.0),
                                      rel=1e-4)

    def test_approx_curve_crosses_once(self):
        # exact and single-exponential curves agree at 0 and diverge smoothly
        prm = ReliabilityParams(disks=8, delta=1e-5, mu=0.05)
        r_of_t, mttdl, approx = raid5_closed_form(prm)
        diffs = [r_of_t(t) - approx(t)
                 for t in np.linspace(0, 2 * mttdl, 50)]
        signs = [d >= -1e-12 for d in diffs]
        # early optimism of the exponential approximation flips at most once
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) <= 1


class TestChenAngus:
    def test_resch_table_chen(self):
        assert chen_mttdl(10, 0, 2000, 1) == pytest.approx(200.0)
        assert chen_mttdl(10, 1, 2000, 1) == pytest.approx(4.444e4, rel=1e-3)
        assert chen_mttdl(10, 2, 1500, 1) == pytest.approx(4.688e6, rel=1e-3)
        assert chen_mttdl(10, 3, 500, 1) == pytest.approx(1.240e7, rel=1e-3)
        assert chen_mttdl(10, 4, 150, 1) == pytest.approx(2.511e6, rel=1e-3)

    def test_resch_table_angus(self):
        assert angus_mttdl(10, 10, 2000, 1) == pytest.approx(200.0)
        assert angus_mttdl(10, 9, 2000, 1) == pytest.approx(4.467e4, rel=1e-3)
        assert angus_mttdl(10, 8, 1500, 1) == pytest.approx(9.438e6, rel=1e-3)
        assert angus_mttdl(10, 7, 500, 1) == pytest.approx(7.591e7, rel=1e-3)
        assert angus_mttdl(10, 6, 150, 1) == pytest.approx(6.441e7, rel=1e-3)

    def test_angus_matches_its_chain(self):
        # the per-failure-repair birth-death chain is the exact model
        n, k, mttf, mttr = 10, 8, 1500.0, 1.0
        from raidlab.ctmc import build_ctmc
        delta, mu = 1 / mttf, 1 / mttr
        edges = []
        kappa = n - k
        for i in range(kappa + 1):
            edges.append((i, i + 1, (n - i) * delta))
            if i > 0:
                edges.append((i, i - 1, i * mu))
        chain = build_ctmc(edges, absorbing=[kappa + 1], initial={0: 1.0})
        total, _, _ = mean_time_to_absorption(chain)
        assert angus_mttdl(n, k, mttf, mttr) == pytest.approx(total, rel=0.01)

    def test_chen_matches_one_at_a_time_chain_at_k1(self):
        # Chen approximates the exact ((2n-1)d + mu)/(n(n-1)d^2) chain by
        # dropping the (2n-1)d term, an O(delta/mu) defect
        n, mttf, mttr = 10, 2000.0, 1.0
        delta, mu = 1 / mttf, 1 / mttr
        exact = ((2 * n - 1) * delta + mu) / (n * (n - 1) * delta ** 2)
        assert chen_mttdl(n, 1, mttf, mttr) == pytest.approx(
            exact, rel=1.1 * (2 * n - 1) * delta / mu)


class TestMultilevel:
    def test_xin_form(self):
        assert xin_raid51_mttdl(8, 1e-4, 0.1) == pytest.approx(
            0.1 ** 3 / (4 * 8 * 7 * 1e-16))

    def test_iliadis_identity(self):
        # with N = 2D: MTTDL = mu^3 / (3 D (D-1) delta^4)
        delta, mu = 1e-4, 0.1
        for d in (4, 8, 10):
            got = iliadis_raid51_mttdl(2 * d, delta, mu)
            want = mu ** 3 / (3 * d * (d - 1) * delta ** 4)
            assert got == pytest.approx(want, rel=1e-12)

    def test_raid15_is_a_parallel_pair_of_raid5_sides(self):
        # a lost side is not rebuilt, so the mirror lives 1/x + 1/(2x) =
        # 1.5 MTTDL_5, with MTTDL_5 the single-parity closed form to
        # leading order in delta/mu
        delta, mu = 1e-6, 0.1
        for disks in (4, 8):
            _, m5, _ = raid5_closed_form(ReliabilityParams(disks, delta, mu))
            assert raid15_mttdl(disks, delta, mu) == pytest.approx(
                1.5 * m5, rel=1e-3)

    def test_birth_death_numeric_vs_approx(self):
        total, approx = birth_death_mttdl(9, 6, 1e-4, 0.5)
        assert total == pytest.approx(approx, rel=0.05)


class TestLse:
    def fixture(self):
        return LseParams(p_bit=1e-14, length=128, interleaves=8,
                         capacity_bytes=300 * 2 ** 30)

    def test_sector_probability(self):
        lse = self.fixture()
        assert lse.p_sector == pytest.approx(4.096e-11, rel=1e-3)

    def test_pseg_none(self):
        got = pseg("none", "independent", self.fixture())
        assert got == pytest.approx(5.2e-9, rel=0.15)
        assert got == pytest.approx(128 * 4.096e-11, rel=1e-3)

    def test_pseg_ipc(self):
        got = pseg("ipc", "independent", self.fixture())
        assert got == pytest.approx(1.6e-18, rel=0.15)

    def test_pseg_spc_leading_term_oracle(self):
        lse = self.fixture()
        exact = pseg("spc", "independent", lse)
        lead = 128 * 127 / 2 * lse.p_sector ** 2
        assert exact == pytest.approx(lead, rel=1e-3)

    def test_pseg_rs_is_the_binomial_tail(self):
        # RS with m checks loses a segment to m + 1 or more sector errors
        lse = LseParams(p_sector=1e-3, length=16, interleaves=2)
        p = Fraction(lse.p_sector)
        tail = sum(math.comb(16, j) * p ** j * (1 - p) ** (16 - j)
                   for j in range(3, 17))
        assert float(tail) == 5.545661280913301e-07
        assert pseg("rs", "independent", lse) == pytest.approx(float(tail),
                                                              rel=1e-12)

    def test_puf_table_values(self):
        lse = self.fixture()
        p_none = p_uf(lse, 8, 1, pseg("none", "independent", lse))
        assert p_none == pytest.approx(1.5e-1, rel=0.15)
        p_ipc = p_uf(lse, 8, 1, pseg("ipc", "independent", lse))
        assert p_ipc == pytest.approx(6.1e-11, rel=0.15)

    def test_mttdl_reduces_without_errors(self):
        prm = ReliabilityParams(disks=8, delta=1e-6, mu=1 / 17.8)
        lse = LseParams(p_sector=0.0, length=128, interleaves=8,
                        capacity_bytes=300 * 2 ** 30)
        got = mttdl_with_lse("raid5", prm, lse, "none")
        n = 8
        want = ((2 * n - 1) * prm.delta + prm.mu) / \
            (n * (n - 1) * prm.delta ** 2)
        assert got == pytest.approx(want, rel=1e-9)

    def test_raid6_chain_sane(self):
        prm = ReliabilityParams(disks=16, delta=1e-6, mu=1 / 17.8)
        lse = self.fixture()
        got = mttdl_with_lse("raid6", prm, lse, "ipc")
        # double parity with IPC-protected segments beats protected raid5
        raid5 = mttdl_with_lse("raid5", prm, lse, "ipc")
        assert got > raid5

    def test_correlated_model(self):
        tail = (1.0, 0.0188, 0.0028, 0.0015, 0.0012, 0.0009, 0.0007, 0.0005,
                0.0003)
        lse = LseParams(p_bit=1e-14, length=128, interleaves=8,
                        burst_mean=1.0291, burst_tail=tail,
                        capacity_bytes=300 * 2 ** 30)
        for scheme in ("none", "spc", "ipc", "rs"):
            val = pseg(scheme, "correlated", lse)
            assert 0 <= val <= 1
        # the correlated model degrades ipc towards first order in P_s
        assert pseg("ipc", "correlated", lse) > pseg("ipc", "independent", lse)


class TestScrub:
    def test_vanishing_period(self):
        out = scrub_model(1e-9, 0.3, 100.0, 1e-9, "deterministic")
        assert out["P_s"] == pytest.approx(0.0, abs=1e-15)

    def test_exponential_twice_deterministic_smallx(self):
        kw = dict(p_w=1e-9, r_w=0.3, h=10.0)
        det = scrub_model(t_s=1e-4, mode="deterministic", **kw)["P_s"]
        exp = scrub_model(t_s=1e-4, mode="exponential", **kw)["P_s"]
        assert exp / det == pytest.approx(2.0, rel=1e-3)

    def test_monotone_in_period_and_bounds(self):
        vals = [scrub_model(1e-9, 0.3, 50.0, ts)["P_s"]
                for ts in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1e-9 * 0.3 for v in vals)

    def test_sigma_and_period_finite_positive(self):
        out = scrub_model(1e-9, 0.3, 50.0, 3600.0, "deterministic",
                          chunk_kb=4.0, scrub_sectors=1024,
                          sectors_per_disk=586 * 10 ** 6, t_pos_s=0.005,
                          sigma=50.0, p=1)
        assert out["sigma_max"] > 0
        assert out["T_S_star"] > 0
        assert 50.0 <= out["sigma_max"]


class TestMirrored:
    def test_bm_count(self):
        assert mirrored_coefficients("bm", 8, 2) == 24

    def test_cd_identity(self):
        got = mirrored_coefficients("cd", 8, 2)
        assert got == math.comb(5, 1) + math.comb(6, 2)
        assert got == math.comb(8, 2) - 8

    @pytest.mark.parametrize("org,kwargs", [
        ("bm", {}), ("grd", {}), ("cd", {}),
        ("id", {"clusters": 2}), ("id", {"clusters": 3}),
    ])
    def test_enumeration_oracle(self, org, kwargs):
        for n in (6, 8, 12):
            c = kwargs.get("clusters", 2)
            if org == "id" and n % c:
                continue
            code = builders.mirrored_org(org, n, **kwargs)
            counts = codes.loss_coefficients(code, "column")
            for i in range(n + 1):
                want = mirrored_coefficients(org, n, i, **kwargs)
                assert counts[i] == want, (org, n, i)

    def test_reliability_from_coefficients(self):
        r = 0.98
        got = mirrored_reliability("bm", 8, r)
        want = sum(math.comb(4, i) * 2 ** i * r ** (8 - i) * (1 - r) ** i
                   for i in range(5))
        assert got == pytest.approx(want)


class TestShortcut:
    def test_epsilon_example(self):
        # three years against a 114-year MTTF
        eps = epsilon_from_horizon(114.0, 3.0)
        assert eps == pytest.approx(0.0263, abs=6e-4)
        assert round(eps, 3) == pytest.approx(0.026, abs=1e-3)

    def test_raid51_beats_raid15(self):
        for n in (2, 4, 8, 20):
            rows = dict((org, term) for org, _, _, term in
                        shortcut_compare(["raid1/5", "raid5/1"], n, 1e-3))
            assert rows["raid5/1"] <= rows["raid1/5"]

    def test_n3_exact_gap(self):
        # R_{5/1} - R_{1/5} = 6 r^2 (1-r)^4 at N=3
        r = 0.97
        r51 = 3 * (1 - (1 - r) ** 2) ** 2 - 2 * (1 - (1 - r) ** 2) ** 3
        raid5_r = r ** 3 + 3 * r ** 2 * (1 - r)
        r15 = 1 - (1 - raid5_r) ** 2
        assert r51 - r15 == pytest.approx(6 * r ** 2 * (1 - r) ** 4, abs=1e-12)

    def test_ranking_matches_exact_ordering(self):
        # enumeration-backed exact reliabilities order like the leading terms
        eps = 1e-3
        r = 1 - eps
        for n in (8, 10):
            exact = {
                "bm": mirrored_reliability("bm", n, r),
                "cd": mirrored_reliability("cd", n, r),
                "grd": mirrored_reliability("grd", n, r),
                "id": mirrored_reliability("id", n, r, clusters=2),
            }
            ranked = [org for org, _, _, _ in
                      shortcut_compare(list(exact), n, eps)]
            by_exact = sorted(exact, key=lambda o: -exact[o])
            assert ranked == by_exact

    def test_table_ordering_at_printed_epsilon(self):
        orgs = ["raid5", "bm", "cd", "grd", "id", "raid6", "lsi", "raid7",
                "sspiral"]
        rows = shortcut_compare(orgs, 8, 0.025)
        ranked = [org for org, _, _, _ in rows]
        # quartic organizations first, then cubic, then the quadratic family
        assert ranked.index("raid7") < ranked.index("raid6")
        assert ranked.index("sspiral") < ranked.index("raid7")
        assert ranked.index("raid6") < ranked.index("bm")
        assert ranked.index("lsi") < ranked.index("raid6")
        assert ranked.index("bm") < ranked.index("cd") < ranked.index("grd")
        assert ranked[-1] == "raid5" or ranked[-2] == "raid5"

    @pytest.mark.parametrize("org,n", [("bm", -3), ("cd", -3), ("id", 1),
                                       ("lsi", 1)])
    def test_negative_coefficient_raises(self, org, n):
        with pytest.raises(ValueError, match="%s has a negative leading "
                                             "coefficient .* at N = %d"
                                             % (org, n)):
            shortcut_compare([org], n, 0.025)

    @pytest.mark.parametrize("org,n", [("raid5", 1), ("raid6", 2),
                                       ("bm", 0), ("sspiral", 3)])
    def test_zero_coefficient_raises(self, org, n):
        # a leading term of zero ranks no array of N disks
        with pytest.raises(ValueError, match="^%s has a zero leading "
                                             "coefficient at N = %d$"
                                             % (org, n)):
            shortcut_compare([org], n, 0.025)

    def test_negative_coefficient_is_named_before_a_zero(self):
        with pytest.raises(ValueError, match="^id has a negative"):
            shortcut_compare(["raid5", "id"], 1, 0.025)

    def test_negative_n_raises_for_binomial_terms(self):
        for org in ("raid5", "raid6", "lsi", "raid7", "sspiral"):
            with pytest.raises(ValueError):
                shortcut_compare([org], -3, 0.025)


class TestTmr:
    def test_mttf_values(self):
        delta = 1e-3
        assert tmr(delta, "tmr")["mttf"] == pytest.approx(5 / (6 * delta))
        simplex = tmr(delta, "tmr_simplex")["mttf"]
        assert simplex == pytest.approx(4 / (3 * delta))
        assert simplex == pytest.approx(1 / (3 * delta) + 1 / delta)

    def test_mission_time(self):
        delta = 2e-3
        out = tmr(delta, "tmr")
        tm = out["mission_time"]
        assert tm == pytest.approx(math.log(2) / delta)
        r = out["reliability"]
        simplex_r = math.exp(-delta * tm)
        assert r(tm) == pytest.approx(simplex_r, abs=1e-12)
        assert r(tm * 0.5) > math.exp(-delta * tm * 0.5)
        assert r(tm * 1.5) < math.exp(-delta * tm * 1.5)

    def test_simplex_curve_matches_chain(self):
        delta = 1e-3
        times = [0.0, 10.0, 500.0, 2000.0, 1e4]
        closed = tmr(delta, "tmr_simplex")["reliability"]
        chain = reliability_curve(tmr_chain(delta, "tmr_simplex"), times)
        assert [closed(t) for t in times] == pytest.approx(list(chain),
                                                           rel=1e-12)

    def test_early_coefficients_and_ranking(self):
        delta, t = 1e-3, 1e-2
        coeffs = []
        for variant in ("tmr", "tmr_simplex"):
            out = tmr(delta, variant)
            # 1 - R(t) = coeff (delta t)^2 + O((delta t)^3)
            got = (1 - out["reliability"](t)) / (delta * t) ** 2
            assert out["early_coefficient"] == pytest.approx(got, rel=1e-4)
            coeffs.append(out["early_coefficient"])
        # smaller early coefficient means more reliable early, per the
        # quadratic expansion 1 - coeff (delta t)^2: simplex is, early on
        a, b = coeffs
        assert b < a


class TestDiffRaid:
    def test_aging_ratio_two(self):
        a = diffraid_aging([70, 10, 10, 10])
        assert a[0][1] == pytest.approx(2.0)
        assert a[0][0] == 1.0

    def test_equal_shares_unit_ratios(self):
        a = diffraid_aging([25, 25, 25, 25])
        assert all(v == pytest.approx(1.0) for row in a for v in row)

    def test_replacement_convergence(self):
        got = diffraid_replacement_ages([80, 5, 5, 5, 5], 10_000.0)
        want = (5750.0, 4312.5, 2875.0, 1437.5)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-3)

    def test_replacement_fixed_point_oracle(self):
        # closed-form fixed point: survivors at (n-1..1) * dt with
        # dt = L / (r_top + n - 1) where r_top is the oldest rank's rate
        # relative to the others
        shares = [40, 20, 20, 20]
        rates = [p * 3 + (100 - p) for p in shares]
        r_top = rates[0] / rates[1]
        dt = 10_000.0 / (r_top + 3)
        want = [3 * dt, 2 * dt, dt]
        got = diffraid_replacement_ages(shares, 10_000.0)
        assert got == pytest.approx(want, rel=1e-6)

    def test_equal_shares_wear_in_lockstep(self):
        # balanced parity ages every device identically, so the whole array
        # reaches the erasure limit together: no staggering survives
        got = diffraid_replacement_ages([25, 25, 25, 25], 10_000.0)
        assert got == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


class TestPlacement:
    def params(self, n=20, c=1e12, r=2, b=1e11):
        return PlacementParams(n=n, c=c, r=r, b=b, lam=1e-4)

    def test_cp_r2_form(self):
        p = self.params()
        mttdl, rate, _ = eafdl(p, "cp")
        assert mttdl == pytest.approx((p.b / (p.lam * p.c)) / (p.n * p.lam))

    def test_dp_superiority(self):
        # declustering beats clustering on MTTDL from r = 3 up (at r = 2 the
        # closed forms give exactly half) and on the loss rate at every r
        for r in (3, 4):
            p = self.params(r=r)
            assert eafdl(p, "dp")[0] >= eafdl(p, "cp")[0]
        for r in (2, 3, 4):
            p = self.params(r=r)
            assert eafdl(p, "dp")[1] <= eafdl(p, "cp")[1]
        p2 = self.params(r=2)
        assert eafdl(p2, "dp")[0] == pytest.approx(eafdl(p2, "cp")[0] / 2)

    def test_bandwidth_scaling(self):
        for r in (2, 3, 4):
            p1 = self.params(r=r)
            p2 = self.params(r=r, b=2e11)
            assert eafdl(p2, "cp")[0] / eafdl(p1, "cp")[0] == \
                pytest.approx(2 ** (r - 1))

    def test_consistency_identity(self):
        p = self.params(r=3)
        mttdl, rate, eq = eafdl(p, "dp")
        et = 1.0 / (p.n * p.lam)
        assert rate == pytest.approx(eq / (et * p.user_data))
