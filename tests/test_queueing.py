import math

import numpy as np
import pytest

from raidlab.disk import MomentSet
from raidlab import queueing as q
from raidlab.queueing import (
    SaturationError, allocate_load, forkjoin_response, gim1_erlang2_wait,
    harmonic, ioe, mg1_head_of_line_wait, mg1_wait, mm1_rate_bounds,
    response_cv, response_moments, satf_service_time,
)


def exp_svc(mean_ms):
    return MomentSet.exponential(mean_ms)


class TestMg1:
    def test_zero_arrivals(self):
        w = mg1_wait(0.0, exp_svc(10.0))
        assert w.wait == 0.0
        assert w.response == 10.0

    def test_mm1_closed_form(self):
        # M/M/1: W = rho x / (1 - rho); rho = 0.5, x = 10 -> W = 10
        w = mg1_wait(50.0, exp_svc(10.0))
        assert w.utilization == pytest.approx(0.5)
        assert w.wait == pytest.approx(10.0)

    def test_saturation(self):
        with pytest.raises(SaturationError):
            mg1_wait(120.0, exp_svc(10.0))

    def test_wait_increases_with_load(self):
        waits = [mg1_wait(lam, exp_svc(5.0)).wait for lam in (10, 50, 100, 150)]
        assert all(a < b for a, b in zip(waits, waits[1:]))

    def test_second_moment_md1_oracle(self):
        # M/D/1: Takacs recursion gives W2 = 2W^2 + lam*m3/(3(1-rho))
        svc = MomentSet.deterministic(8.0)
        w = mg1_wait(100.0, svc)
        lam = 0.1
        expect = 2 * w.wait ** 2 + lam * 8.0 ** 3 / (3 * (1 - 0.8))
        assert w.wait_m2 == pytest.approx(expect)


class TestPriority:
    def test_single_class_reduces_to_mg1(self):
        svc = exp_svc(10.0)
        base = mg1_wait(50.0, svc)
        pr = mg1_head_of_line_wait(50.0, svc, base.utilization)
        assert pr == pytest.approx(base.wait)

    def test_zero_high_load_residual_only(self):
        svc = exp_svc(10.0)
        pr = mg1_head_of_line_wait(40.0, svc, 0.0)
        assert pr == pytest.approx(0.04 * svc.m2 / 2.0)


class TestRateBounds:
    def test_paper_mean_form(self):
        # x = 10 ms, R_max = 20 ms -> 50/s
        assert mm1_rate_bounds(10.0, r_max=20.0) == pytest.approx(50.0)

    def test_unbounded_response_gives_capacity(self):
        assert mm1_rate_bounds(10.0, r_max=1e18) == pytest.approx(100.0, rel=1e-6)

    def test_percentile_inverts_response_cdf(self):
        # choose R_p from a known rho, then recover lambda
        x = 10.0
        p = 0.95
        rho = 0.6
        r_mean = x / (1 - rho)
        r_p = -r_mean * math.log(1 - p)
        lam = mm1_rate_bounds(x, percentile=(p, r_p))
        assert lam == pytest.approx(rho / x * 1000.0, rel=1e-9)
        # and the response CDF at r_p is p
        assert 1 - math.exp(-r_p / r_mean) == pytest.approx(p)

    def test_infeasible(self):
        with pytest.raises(ValueError):
            mm1_rate_bounds(10.0, r_max=9.0)


class TestAllocate:
    def test_identical_devices_split_equally(self):
        devs = [exp_svc(10.0)] * 4
        rates = allocate_load(devs, 200.0, "mean-optimal")
        assert sum(rates) == pytest.approx(200.0, abs=1e-9)
        assert np.allclose(rates, 50.0, atol=1e-6)
        rates = allocate_load(devs, 200.0, "min-max")
        assert np.allclose(rates, 50.0, atol=1e-6)

    def test_minmax_equalizes_response(self):
        devs = [exp_svc(5.0), exp_svc(10.0)]
        rates = allocate_load(devs, 100.0, "min-max")
        assert sum(rates) == pytest.approx(100.0, abs=1e-9)
        rs = [q.mg1_wait(r, d).response for r, d in zip(rates, devs)]
        assert rs[0] == pytest.approx(rs[1], abs=1e-6)
        # faster device carries higher utilization
        rhos = [r / 1000.0 * d.m1 for r, d in zip(rates, devs)]
        assert rhos[0] > rhos[1]

    def test_minmax_bisection_oracle(self):
        devs = [exp_svc(5.0), exp_svc(10.0)]
        rates = allocate_load(devs, 100.0, "min-max")
        # independent bisection on the common response time
        lo, hi = 5.0, 500.0
        for _ in range(200):
            mid = (lo + hi) / 2
            tot = 0.0
            for d in devs:
                if mid > d.m1:
                    tot += 2 * (mid - d.m1) / (d.m2 + 2 * d.m1 * (mid - d.m1))
            if tot > 0.1:
                hi = mid
            else:
                lo = mid
        want = []
        for d in devs:
            want.append(2 * (lo - d.m1) / (d.m2 + 2 * d.m1 * (lo - d.m1)) * 1000)
        assert rates == pytest.approx(want, rel=1e-6)

    def test_mean_optimal_drops_slow_device(self):
        devs = [exp_svc(5.0), exp_svc(500.0)]
        rates = allocate_load(devs, 20.0, "mean-optimal")
        assert rates[1] == 0.0
        assert rates[0] == pytest.approx(20.0)

    def test_mean_optimal_beats_alternatives(self):
        devs = [exp_svc(4.0), exp_svc(9.0), exp_svc(20.0)]
        lam_total = 150.0
        rates = allocate_load(devs, lam_total, "mean-optimal")

        def objective(rs):
            return sum(r / lam_total * q.mg1_wait(r, d).response
                       for r, d in zip(rs, devs))

        best = objective(rates)
        rng = np.random.default_rng(11)
        for _ in range(300):
            w = rng.dirichlet([1, 1, 1]) * lam_total
            if all(wi / 1000.0 * d.m1 < 0.999 for wi, d in zip(w, devs)):
                assert objective(w) >= best - 1e-6

    def test_infeasible_total(self):
        with pytest.raises(SaturationError):
            allocate_load([exp_svc(10.0)], 150.0)


class TestForkJoin:
    def test_flatto_hahn_at_zero(self):
        # R2(0) = H2 / mu
        mu = 0.1
        r0 = 1.0 / mu
        got = forkjoin_response("flatto-hahn", 2, rho=0.0, resp=r0)
        assert got == pytest.approx(harmonic(2) * r0)

    def test_flatto_hahn_below_max_bound(self):
        for rho in np.linspace(0.0, 0.95, 10):
            r = 10.0 / (1 - rho)
            fh = forkjoin_response("flatto-hahn", 2, rho=rho, resp=r)
            assert fh <= harmonic(2) * r + 1e-12

    def test_nelson_tantawi_reduces_at_n2(self):
        r = 15.0
        assert forkjoin_response("nelson-tantawi", 2, rho=0.4, resp=r) == \
            pytest.approx(forkjoin_response("flatto-hahn", 2, rho=0.4, resp=r))

    def test_order_stat_exponential_is_harmonic(self):
        # sigma = mean for exponential branches: R + R(Hn - 1) = Hn R
        got = forkjoin_response("order-stat-max", 4, resp=(20.0, 20.0))
        assert got == pytest.approx(harmonic(4) * 20.0)

    def test_erlang_max_single_branch(self):
        got = forkjoin_response("erlang-max", 1, branches=[(3, 0.2)])
        assert got == pytest.approx(15.0, rel=1e-6)

    def test_erlang_max_exponential_oracle(self):
        # max of n iid exponentials has mean Hn/mu
        got = forkjoin_response("erlang-max", 3, branches=[(1, 0.1)] * 3)
        assert got == pytest.approx(harmonic(3) * 10.0, rel=1e-6)

    def test_asymmetric_two_exponentials_oracle(self):
        # E[max(X,Y)] = 1/m1 + 1/m2 - 1/(m1+m2)
        got = forkjoin_response("asymmetric-max2", 2,
                                branches=[(1, 0.2), (1, 0.05)])
        want = 5.0 + 20.0 - 1.0 / 0.25
        assert got == pytest.approx(want, rel=1e-9)

    def test_asymmetric_matches_quadrature(self):
        branches = [(2, 0.4), (3, 0.15)]
        got = forkjoin_response("asymmetric-max2", 2, branches=branches)
        want = forkjoin_response("erlang-max", 2, branches=branches, tol=1e-10)
        assert got == pytest.approx(want, rel=1e-6)

    def test_evd_max_formula(self):
        got = forkjoin_response("evd-max", 8, resp=(10.0, 4.0))
        want = 10.0 + math.sqrt(6) / math.pi * 4.0 * math.log(8) / 1.27
        assert got == pytest.approx(want)

    def test_bad_combinations(self):
        with pytest.raises(ValueError):
            forkjoin_response("flatto-hahn", 3, rho=0.5, resp=1.0)
        with pytest.raises(ValueError):
            forkjoin_response("nelson-tantawi", 64, rho=0.5, resp=1.0)


class TestResponseCv:
    def test_low_load_is_service_cv(self):
        svc = MomentSet(10.0, 150.0, 3000.0)
        assert response_cv(1e-9, svc) == pytest.approx(svc.cv2, rel=1e-6)

    def test_heavy_traffic_tends_to_one(self):
        svc = MomentSet(10.0, 150.0, 3000.0)
        assert response_cv(99.99, svc) == pytest.approx(1.0, abs=2e-3)

    def test_exponential_always_one(self):
        svc = MomentSet.exponential(10.0)
        for lam in (5.0, 40.0, 80.0, 99.0):
            assert response_cv(lam, svc) == pytest.approx(1.0, abs=1e-9)

    def test_matches_response_moments(self):
        svc = MomentSet(8.0, 100.0, 1800.0)
        lam = 60.0
        mean, sd = response_moments(lam, svc)
        assert response_cv(lam, svc) == pytest.approx((sd / mean) ** 2, rel=1e-9)


class TestGim1:
    def test_light_load(self):
        assert gim1_erlang2_wait(1e-6, 0.1) == pytest.approx(0.0, abs=1e-6)

    def test_quadratic_root(self):
        # rho = 0.5: sigma = (3 - sqrt 5)/2
        lam = 50.0
        mu = 0.1
        rho = 0.5
        sigma = 0.5 * (3 - math.sqrt(5))
        assert sigma ** 2 - (1 + 4 * rho) * sigma + 4 * rho ** 2 == \
            pytest.approx(0.0, abs=1e-12)
        want = sigma / (1 - sigma) * 10.0
        assert gim1_erlang2_wait(lam, mu) == pytest.approx(want)

    def test_beats_random_split(self):
        # round-robin (Erlang-2) waits less than Poisson splitting at equal rho
        svc = MomentSet.exponential(10.0)
        for lam in (20.0, 50.0, 80.0):
            w_rr = gim1_erlang2_wait(lam, 0.1)
            w_mm1 = mg1_wait(lam, svc).wait
            assert w_rr < w_mm1


class TestSmallLaws:
    def test_satf_identity(self):
        assert satf_service_time(6.0, 1) == 6.0

    def test_satf_halving_at_32(self):
        assert satf_service_time(6.0, 32) == pytest.approx(3.0)

    def test_satf_quarter_at_1024(self):
        assert satf_service_time(6.0, 1024) == pytest.approx(1.5)

    def test_ioe_zero(self):
        assert ioe(0.0) == 1.0

    def test_ioe_table_rows(self):
        assert ioe(55.0, table="10k") == pytest.approx(2.0)
        assert ioe(48.0, table="15k") == pytest.approx(2.0)
        assert ioe(50.0) == pytest.approx(2.0)

    def test_ioe_profile_formula(self):
        from raidlab.disk import cheetah_15k5
        prof = cheetah_15k5()
        got = ioe(4.0, profile=prof)
        assert got == pytest.approx(1.0 + (4 / 1024) / 62.0 * 333.0)
