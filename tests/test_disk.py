import math

import numpy as np
import pytest

from raidlab import disk
from raidlab.disk import (
    Deterministic, DiscreteDist, DiskProfile, MomentSet, Uniform,
    cheetah_15k5, kway_seek_expectations, seek_distance_pmf,
    seek_time_moments, service_time_moments, sum_of_independent,
    transform_eval,
)


def small_profile(c=5, p=None):
    return DiskProfile(cylinders=c, rotation_time=8.33, seek_char=(1.0, 0.5),
                       no_move_prob=p)


class TestSeekDistancePmf:
    def test_c5_uniform_values(self):
        # direct evaluation: P[0]=1/5, P[d]=2(5-d)/25
        pmf = seek_distance_pmf(small_profile())
        assert np.allclose(pmf.probs, [0.2, 0.32, 0.24, 0.16, 0.08])

    def test_sums_to_one(self):
        for c in (2, 5, 37, 400):
            pmf = seek_distance_pmf(small_profile(c=c))
            assert abs(pmf.probs.sum() - 1.0) < 1e-12
            assert (pmf.probs >= 0).all()

    def test_zbr_single_zone_matches_uniform(self):
        prof = DiskProfile(cylinders=40, rotation_time=8.33,
                           seek_char=(1.0, 0.5), zones=((40, 500),))
        uni = seek_distance_pmf(prof, "uniform-cylinder")
        zbr = seek_distance_pmf(prof, "zbr-weighted")
        assert np.allclose(uni.probs, zbr.probs, atol=1e-12)

    def test_zbr_brute_force_oracle(self):
        prof = DiskProfile(cylinders=12, rotation_time=8.33,
                           seek_char=(1.0, 0.5),
                           zones=((4, 900), (4, 700), (4, 500)))
        zbr = seek_distance_pmf(prof, "zbr-weighted")
        sect = prof.sectors_per_cylinder()
        pc = sect / sect.sum()
        expected = np.zeros(12)
        for start in range(12):
            for target in range(12):
                expected[abs(target - start)] += pc[start] * pc[target]
        assert np.allclose(zbr.probs, expected, atol=1e-14)
        assert abs(zbr.probs.sum() - 1.0) < 1e-12

    def test_requires_two_cylinders(self):
        with pytest.raises(ValueError):
            seek_distance_pmf(DiskProfile(cylinders=1, rotation_time=8.33,
                                          seek_char=(1, 1)))


class TestSeekTimeMoments:
    def test_degenerate_pmf_all_zero(self):
        pmf = DiscreteDist([0.0, 1.0], [1.0, 0.0])
        m = seek_time_moments(pmf, lambda d: d + 5.0)
        assert m.m1 == m.m2 == m.m3 == 0.0

    def test_mean_distance_near_c_over_3(self):
        c = 20_000
        pmf = seek_distance_pmf(small_profile(c=c))
        mean_dist = pmf.moment(1)
        # exact mean is (C^2-1)/(3C) ~ C/3
        assert mean_dist == pytest.approx(c / 3, rel=2e-4)

    def test_cheetah_brute_force_summation(self):
        prof = cheetah_15k5()
        pmf = seek_distance_pmf(prof)
        got = seek_time_moments(pmf, prof.seek_time)
        # independent plain-python summation over the same pmf
        m1 = m2 = m3 = 0.0
        for d, p in zip(pmf.values, pmf.probs):
            t = prof.seek_time(d) if d > 0 else 0.0
            m1 += p * t
            m2 += p * t * t
            m3 += p * t ** 3
        assert got.m1 == pytest.approx(m1, rel=1e-12)
        assert got.m2 == pytest.approx(m2, rel=1e-12)
        assert got.m3 == pytest.approx(m3, rel=1e-12)

    def test_scaling_property(self):
        prof = small_profile(c=50)
        pmf = seek_distance_pmf(prof)
        base = seek_time_moments(pmf, prof.seek_time)
        alpha = 3.7
        scaled = seek_time_moments(pmf, lambda d: alpha * prof.seek_time(d))
        assert scaled.m1 == pytest.approx(alpha * base.m1)
        assert scaled.m2 == pytest.approx(alpha ** 2 * base.m2)


class TestServiceTimeMoments:
    def test_7200rpm_latency_mean(self):
        # mean rotational latency at 7200 RPM is 4.17 ms
        prof = DiskProfile(cylinders=100, rotation_time=60000.0 / 7200,
                           seek_char=(0.0, 0.0), no_move_prob=1.0,
                           zones=((100, 10 ** 9),))
        m = service_time_moments(prof, block_sectors=1)
        assert m.m1 == pytest.approx(60000.0 / 7200 / 2, abs=1e-6)
        assert m.m1 == pytest.approx(4.17, abs=0.01)

    def test_zero_seek_zero_transfer(self):
        prof = DiskProfile(cylinders=10, rotation_time=10.0,
                           seek_char=(0.0, 0.0), no_move_prob=1.0,
                           zones=((10, 10 ** 9),))
        m = service_time_moments(prof, block_sectors=1)
        assert m.m1 == pytest.approx(5.0, abs=1e-6)

    def test_single_zone_transfer_and_sampling_oracle(self):
        prof = DiskProfile(cylinders=200, rotation_time=8.0,
                           seek_char=(0.6, 0.05), zones=((200, 400),))
        j = 8
        tm = disk.transfer_moments(prof, j)
        assert tm.m1 == pytest.approx(j * 8.0 / 400)
        got = service_time_moments(prof, block_sectors=j)
        rng = np.random.default_rng(7)
        n = 1_000_000
        pmf = seek_distance_pmf(prof)
        d = pmf.sample(rng, n)
        seek = np.where(d > 0, prof.seek_time(d), 0.0)
        lat = rng.uniform(0, prof.rotation_time, n)
        xfer = np.full(n, j * 8.0 / 400)
        total = seek + lat + xfer
        assert got.m1 == pytest.approx(total.mean(), rel=5e-3)
        assert got.m2 == pytest.approx((total ** 2).mean(), rel=5e-3)
        assert got.m3 == pytest.approx((total ** 3).mean(), rel=1e-2)


class TestTransform:
    def test_at_zero(self):
        pmf = seek_distance_pmf(small_profile())
        assert transform_eval(pmf, 0.0) == pytest.approx(1.0)

    def test_deterministic(self):
        assert transform_eval(Deterministic(4.0), 0.5) == pytest.approx(
            math.exp(-2.0))

    def test_uniform_matches_quadrature(self):
        # oracle: numerical quadrature of the uniform density
        from scipy.integrate import quad
        t_rot = 8.33
        for s in (0.01, 0.1, 1.0):
            got = transform_eval(Uniform(t_rot), s)
            want, _ = quad(lambda x: math.exp(-s * x) / t_rot, 0, t_rot,
                           epsabs=1e-13)
            assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_decreasing(self):
        pmf = seek_distance_pmf(small_profile(c=30)).map(lambda d: d + 1.0)
        vals = [transform_eval(pmf, s) for s in np.linspace(0, 2, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_product_rule_for_sums(self):
        a = Deterministic(2.0)
        b = Uniform(8.0)
        s = 0.3
        assert transform_eval([a, b], s) == pytest.approx(
            transform_eval(a, s) * transform_eval(b, s))


class TestKwaySeek:
    def test_k1_is_c_over_3(self):
        mn, mx = kway_seek_expectations(30_000, 1)
        assert mn == pytest.approx(30_000 / 3)
        assert mx == pytest.approx(30_000 * (1 - 2 / 3))
        assert abs(mn - mx) == pytest.approx(0.0, abs=1e-9)

    def test_k2_is_c_over_5(self):
        mn, _ = kway_seek_expectations(30_000, 2)
        assert mn == pytest.approx(30_000 / 5)

    def test_max_increases_with_k(self):
        maxima = [kway_seek_expectations(1000, k)[1] for k in range(1, 6)]
        assert all(a < b for a, b in zip(maxima, maxima[1:]))


class TestMomentAlgebra:
    def test_variance_identity(self):
        m = MomentSet.exponential(10.0)
        assert m.variance == pytest.approx(100.0)
        assert abs(m.variance - (m.m2 - m.m1 ** 2)) < 1e-9

    def test_moment_consistency_check(self):
        # m2 may underflow to 0 where m1**2 is subnormal; below that scale
        # a negative m1 or m2 is still wrong, and above it m2 < m1**2 is
        assert MomentSet(1e-160, 0.0).m2 == 0.0
        for m1, m2 in ((-1e-200, 0.0), (1e-170, -1e-300), (1.0, 0.5),
                       (1e-150, 0.5e-300)):
            with pytest.raises(ValueError, match="inconsistent moments"):
                MomentSet(m1, m2)

    def test_sum_of_independent_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(2.0, 2_000_000)
        y = rng.uniform(0, 5.0, 2_000_000)
        z = np.full_like(x, 1.5)
        parts = [MomentSet.exponential(2.0),
                 Uniform(5.0).moments(),
                 MomentSet.deterministic(1.5)]
        s = sum_of_independent(*parts)
        tot = x + y + z
        assert s.m1 == pytest.approx(tot.mean(), rel=2e-3)
        assert s.m2 == pytest.approx((tot ** 2).mean(), rel=4e-3)
        assert s.m3 == pytest.approx((tot ** 3).mean(), rel=8e-3)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DiskProfile(cylinders=10, rotation_time=8.0, seek_char=(1, 1),
                        zones=((5, 100),))  # zone tracks != cylinders
        with pytest.raises(ValueError):
            DiskProfile(cylinders=10, rotation_time=0.0, seek_char=(1, 1))
        with pytest.raises(ValueError):
            DiskProfile(cylinders=10, rotation_time=8.0, seek_char=(1, 1),
                        no_move_prob=1.5)

    def test_cheetah_fixture_values(self):
        prof = cheetah_15k5()
        assert prof.cylinders == 72170
        assert prof.total_sectors == 286749487
        assert prof.rotation_time == pytest.approx(60000.0 / 15015)
        # seek characteristic is nondecreasing in distance
        d = np.arange(0, prof.cylinders, 997)
        t = prof.seek_time(d)
        assert (np.diff(t) >= 0).all()
