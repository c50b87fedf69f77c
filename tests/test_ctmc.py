import math

import numpy as np
import pytest

from raidlab.ctmc import (
    build_ctmc, mean_time_to_absorption, mttf_by_quadrature,
    reliability_curve, transient_series, transient_uniformization,
)
from raidlab.reliability import (
    ReliabilityParams, duplex_coverage_chain, raid5_chain, raid5_closed_form,
    raid5_lse_chain, LseParams, mttdl_with_lse, pseg, tmr, tmr_chain,
)


DELTA = 1e-5   # 1/hour
MU = 1.0 / 17.8


class TestBuild:
    def test_row_sums_zero(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=DELTA, mu=MU))
        assert np.allclose(chain.q.sum(axis=1), 0.0, atol=1e-15)

    def test_duplicate_edges_summed(self):
        chain = build_ctmc([("a", "b", 1.0), ("a", "b", 2.0)], absorbing=["b"])
        assert chain.q[0, 1] == pytest.approx(3.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            build_ctmc([("a", "b", -1.0)])

    def test_trivial_absorbing_state(self):
        chain = build_ctmc([], absorbing=["only"], states=["only"],
                           initial={"only": 1.0})
        assert chain.q.shape == (1, 1)

    def test_duplex_coverage_edges(self):
        chain = duplex_coverage_chain(DELTA, MU, 0.95)
        i0 = chain.index(0)
        i1 = chain.index(1)
        ifail = chain.index("failed")
        assert chain.q[i0, i1] == pytest.approx(2 * DELTA * 0.95)
        assert chain.q[i0, ifail] == pytest.approx(2 * DELTA * 0.05)
        assert chain.q[i1, i0] == pytest.approx(MU)
        assert chain.q[i1, ifail] == pytest.approx(DELTA)


class TestAbsorption:
    def test_pure_death_two_state(self):
        lam = 0.37
        chain = build_ctmc([("up", "down", lam)], absorbing=["down"])
        total, per_state, probs = mean_time_to_absorption(chain)
        assert total == pytest.approx(1.0 / lam)
        assert probs["down"] == pytest.approx(1.0)

    def test_raid5_closed_form_match(self):
        params = ReliabilityParams(disks=8, delta=DELTA, mu=MU)
        chain = raid5_chain(params)
        total, per_state, _ = mean_time_to_absorption(chain)
        n = 7
        want = ((2 * n + 1) * DELTA + MU) / (n * (n + 1) * DELTA ** 2)
        assert total == pytest.approx(want, rel=1e-12)
        # tau components as solved by hand
        assert per_state["ok"] + per_state["degraded"] == pytest.approx(total)

    def test_raid5_lse_closed_form_match(self):
        params = ReliabilityParams(disks=8, delta=DELTA, mu=MU)
        lse = LseParams(p_bit=1e-14, length=128, interleaves=8,
                        capacity_bytes=300 * 2 ** 30)
        p_seg = pseg("none", "independent", lse)
        chain = raid5_lse_chain(params, lse, p_seg)
        total, _, _ = mean_time_to_absorption(chain)
        want = mttdl_with_lse("raid5", params, lse, "none")
        assert total == pytest.approx(want, rel=1e-9)

    def test_unreachable_absorption_diagnosed(self):
        chain = build_ctmc([("a", "b", 1.0), ("b", "a", 1.0)],
                           absorbing=["c"], states=["a", "b", "c"],
                           initial={"a": 1.0})
        with pytest.raises(ValueError):
            mean_time_to_absorption(chain)

    def test_absorption_probabilities_split(self):
        chain = build_ctmc([("s", "a", 1.0), ("s", "b", 3.0)],
                           absorbing=["a", "b"])
        _, _, probs = mean_time_to_absorption(chain)
        assert probs["a"] == pytest.approx(0.25)
        assert probs["b"] == pytest.approx(0.75)

    def test_fixture_chain_probabilities_sum_tightly(self):
        params = ReliabilityParams(disks=8, delta=1e-5, mu=1 / 17.8)
        lse = LseParams(p_bit=1e-14, length=128, interleaves=8,
                        capacity_bytes=300 * 2 ** 30)
        p_seg = pseg("none", "independent", lse)
        for chain in (raid5_lse_chain(params, lse, p_seg),
                      duplex_coverage_chain(DELTA, MU, 0.95),
                      tmr_chain(1e-3)):
            _, _, probs = mean_time_to_absorption(chain)
            assert abs(sum(probs.values()) - 1.0) < 1e-9


class TestTransient:
    def test_t_zero_is_initial(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=DELTA, mu=MU))
        assert np.allclose(transient_uniformization(chain, 0.0), chain.initial)

    def test_two_state_flip_hand_solution(self):
        lam = 0.8
        chain = build_ctmc([("a", "b", lam), ("b", "a", lam)])
        for t in (0.1, 0.5, 2.0):
            pi = transient_uniformization(chain, t, tol=1e-13)
            want = 0.5 * (1 + math.exp(-2 * lam * t))
            assert pi[chain.index("a")] == pytest.approx(want, abs=1e-10)

    def test_raid5_closed_form_curve(self):
        params = ReliabilityParams(disks=8, delta=DELTA, mu=MU)
        r_of_t, mttdl, _ = raid5_closed_form(params)
        chain = raid5_chain(params)
        for t in np.linspace(0.0, 5 * mttdl, 7):
            got = reliability_curve(chain, [t], tol=1e-10)[0]
            assert got == pytest.approx(r_of_t(t), abs=1e-8)

    def test_probability_vector(self):
        chain = raid5_chain(ReliabilityParams(disks=10, delta=1e-4, mu=0.5))
        for t in (10.0, 1e3, 1e5):
            pi = transient_uniformization(chain, t, tol=1e-12)
            assert pi.sum() == pytest.approx(1.0, abs=1e-9)
            assert (pi >= -1e-12).all()

    def test_uniformization_rate_invariance(self):
        # padding the uniformization rate (2x and 10x the minimum) must not
        # change the result
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-4, mu=0.1))
        base = transient_uniformization(chain, 500.0, tol=1e-13)
        for factor in (2.0, 10.0):
            padded = transient_uniformization(chain, 500.0, tol=1e-13,
                                              rate_factor=factor)
            assert np.allclose(base, padded, atol=1e-10)

    def test_series_matches_uniformization(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-4, mu=0.05))
        t = 30.0
        series, bound = transient_series(chain, t, 60)
        uni = transient_uniformization(chain, t, tol=1e-13)
        assert np.allclose(series, uni, atol=max(bound, 1e-10))

    def test_series_diagonal_decoupled(self):
        chain = build_ctmc([("a", "sink", 0.5), ("b", "sink", 2.0)],
                           absorbing=["sink"],
                           initial={"a": 0.5, "b": 0.5})
        t = 0.7
        got, _ = transient_series(chain, t, 80)
        assert got[chain.index("a")] == pytest.approx(0.5 * math.exp(-0.5 * t),
                                                      abs=1e-12)
        assert got[chain.index("b")] == pytest.approx(0.5 * math.exp(-2.0 * t),
                                                      abs=1e-12)


class TestQuadrature:
    def test_tmr_mttf(self):
        delta = 1e-3
        chain = tmr_chain(delta, "tmr")
        total, _, _ = mean_time_to_absorption(chain)
        assert total == pytest.approx(5 / (6 * delta), rel=1e-12)
        quad = mttf_by_quadrature(chain, tol=1e-7)
        assert quad == pytest.approx(5 / (6 * delta), rel=1e-6)

    def test_tmr_simplex_mttf(self):
        delta = 1e-3
        chain = tmr_chain(delta, "tmr_simplex")
        total, _, _ = mean_time_to_absorption(chain)
        assert total == pytest.approx(4 / (3 * delta), rel=1e-12)
        quad = mttf_by_quadrature(chain, tol=1e-7)
        assert quad == pytest.approx(4 / (3 * delta), rel=1e-6)

    def test_reliability_at_zero(self):
        chain = tmr_chain(1e-3)
        assert reliability_curve(chain, [0.0])[0] == pytest.approx(1.0)

    def test_mtta_equals_quadrature_on_duplex(self):
        chain = duplex_coverage_chain(1e-3, 0.2, 0.9)
        total, _, _ = mean_time_to_absorption(chain)
        quad = mttf_by_quadrature(chain, tol=1e-7)
        assert quad == pytest.approx(total, rel=1e-6)

    def test_raid5_quadrature_matches_solve(self):
        # R(t) read as one minus the absorbed mass integrated round-off at
        # t >= 1e9 h here and gave a negative MTTF
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-5,
                                              mu=1 / 17.8))
        total, _, _ = mean_time_to_absorption(chain)
        assert total == pytest.approx(1.0059e7, rel=1e-4)
        assert mttf_by_quadrature(chain, tol=1e-6) == \
            pytest.approx(total, rel=1e-6)

    def test_far_tail_keeps_relative_precision(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-5,
                                              mu=1 / 17.8))
        live = chain.transient_index
        lam, vec = np.linalg.eig(chain.q[np.ix_(live, live)])
        start = chain.initial[live] @ vec
        weights = np.linalg.solve(vec, np.ones(len(live)))
        for t in (1e8, 1e9):
            exact = float(np.real(start * np.exp(lam * t) @ weights))
            assert reliability_curve(chain, [t])[0] == \
                pytest.approx(exact, rel=1e-3)

    def test_duplex_closed_form_oracle(self):
        # hand solution of the two-transient-state system:
        # t0 = 1/(2d) + c t1,  t1 = 1/(mu+d) + mu/(mu+d) t0
        delta, mu, c = 1e-3, 0.2, 0.9
        chain = duplex_coverage_chain(delta, mu, c)
        total, _, _ = mean_time_to_absorption(chain)
        t0 = (1 / (2 * delta) + c / (mu + delta)) / \
            (1 - c * mu / (mu + delta))
        assert total == pytest.approx(t0, rel=1e-9)


class TestSeriesEdgeCases:
    def test_series_at_time_zero(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-4, mu=0.05))
        got, bound = transient_series(chain, 0.0, 5)
        assert np.allclose(got, chain.initial)
        assert bound == 0.0
