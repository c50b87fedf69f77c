import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from raidlab import ctmc
from raidlab.ctmc import (
    build_ctmc, mean_time_to_absorption, mttf_by_quadrature,
    reliability_curve, transient_series, transient_uniformization,
)
from raidlab.reliability import (
    ReliabilityParams, birth_death_chain, duplex_coverage_chain, raid5_chain,
    raid5_closed_form, raid5_lse_chain, LseParams, mttdl_with_lse, pseg, tmr,
    tmr_chain,
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

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rate_not_finite_and_nonnegative_rejected(self, rate):
        with pytest.raises(ValueError, match="on 'a' -> 'b' is not finite"):
            build_ctmc([("a", "b", rate)], absorbing=["b"])

    @pytest.mark.parametrize("initial", [{"a": 0.5}, {"a": 1.5, "b": -0.5},
                                         {"a": math.nan}, [1.0]])
    def test_initial_not_a_distribution_rejected(self, initial):
        with pytest.raises(ValueError, match="must be a distribution"):
            build_ctmc([("a", "b", 1.0)], absorbing=["b"], initial=initial)

    def test_initial_on_an_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="initial names 'c', not a state"):
            build_ctmc([("a", "b", 1.0)], absorbing=["b"], initial={"c": 1.0})

    def test_trivial_absorbing_state(self):
        chain = build_ctmc([], absorbing=["only"], states=["only"],
                           initial={"only": 1.0})
        assert chain.q.shape == (1, 1)

    def test_unknown_state_is_a_value_error(self):
        chain = build_ctmc([("a", "b", 1.0)], absorbing=["b"])
        assert chain.index("b") == 1
        for state in ("c", ["a"]):
            with pytest.raises(ValueError):
                chain.index(state)

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

    @pytest.mark.parametrize("args,mass", [((20, 14, 1e-4, 1), "1.607"),
                                           ((16, 12, 1e-6, 1), "0.00026")])
    def test_lone_absorbing_state_mass_is_checked(self, args, mass):
        # the dense solve is wrong on these stiff chains, and the absorbed
        # mass of their one absorbing state shows it
        with pytest.raises(ValueError,
                           match="absorption probabilities sum to " + mass):
            mean_time_to_absorption(birth_death_chain(*args))

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


@st.composite
def absorbing_chains(draw):
    """Up to 8 states, the last one or two absorbing, rates 1e-6 to 1e2."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_abs = draw(st.integers(min_value=1, max_value=min(2, n - 1)))
    edges = []
    for a in range(n - n_abs):
        for b in range(n):
            if b != a and draw(st.booleans()):
                edges.append((a, b, 10.0 ** draw(st.floats(-6.0, 2.0))))
    return build_ctmc(edges, absorbing=range(n - n_abs, n),
                      states=range(n), initial={0: 1.0})


class TestTransientPaths:
    """Vector steps and squaring, each against scipy's expm."""

    @given(absorbing_chains(),
           st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_paths_and_curve_match_expm(self, chain, drawn):
        times = drawn + [0.0, drawn[0]]
        lam = ctmc._uniformization_rate(chain)
        live = chain.transient_index
        exact = [chain.initial @ expm(chain.q * t) for t in times]
        for t, want in zip(times, exact):
            if lam * t > 0.0:  # the public entry points return pi(0) at x = 0
                for path in (ctmc._by_vectors, ctmc._by_squaring):
                    got = path(chain.q / lam, chain.initial, lam * t, 1e-13)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        curve = reliability_curve(chain, times, tol=1e-13)
        np.testing.assert_allclose(curve, [pi[live].sum() for pi in exact],
                                   rtol=0, atol=1e-10)

    def test_paths_match_expm_on_demo_chain(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=DELTA, mu=MU))
        lam = ctmc._uniformization_rate(chain)
        for t in (50.0, 1e3, 1e5):
            want = chain.initial @ expm(chain.q * t)
            for path in (ctmc._by_vectors, ctmc._by_squaring):
                got = path(chain.q / lam, chain.initial, lam * t, 1e-13)
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_cost_rule_picks_the_path(self):
        # demo 07's RAID-5 chain at 1e9 h needs ~5.6e7 Poisson terms: square
        chain = raid5_chain(ReliabilityParams(disks=8, delta=DELTA, mu=MU))
        lam = ctmc._uniformization_rate(chain)
        assert ctmc._squaring_cheaper(len(chain.transient_index),
                                      lam * 1e9, 1e-12)
        # the 357-state was_lrc column chain (lam = 4.6/h) up to 200 h
        # takes vector steps, and squares only far beyond that
        assert not ctmc._squaring_cheaper(357, 4.6 * 200.0, 1e-12 / 3)
        assert ctmc._squaring_cheaper(357, 4.6 * 1e6, 1e-12)

    def test_curve_keeps_callers_order(self):
        chain = raid5_chain(ReliabilityParams(disks=8, delta=1e-4, mu=0.05))
        times = [200.0, 10.0, 0.0, 5e4, 10.0]
        got = reliability_curve(chain, times)
        for t, r in zip(times, got):
            assert r == pytest.approx(reliability_curve(chain, [t])[0],
                                      rel=1e-12)
        assert got[2] == 1.0 and got[1] == got[4]

    def test_tolerance_bounds_the_whole_curve(self):
        # two fast-mixing states and a slow loss: transient mass stays near
        # 1, so every step's truncation shows in R(t) and the steps add up
        chain = build_ctmc([("a", "b", 1.0), ("b", "a", 1.0),
                            ("b", "lost", 1e-3)], absorbing=["lost"])
        tol = 1e-6
        times = [0.5 * k for k in range(1, 41)]
        got = reliability_curve(chain, times, tol=tol)
        for t, r in zip(times, got):
            exact = float(expm(chain.q * t)[0, :2].sum())
            assert 0.0 <= exact - r <= tol

    def test_rejects_bad_times(self):
        chain = tmr_chain(1e-3)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                reliability_curve(chain, [1.0, bad])
        with pytest.raises(ValueError):
            transient_uniformization(chain, math.inf)

    def test_subnormal_time_is_time_zero(self):
        # lam * t underflows to 0, which has no Poisson log weight
        chain = tmr_chain(1e-3)
        assert np.array_equal(transient_uniformization(chain, 5e-324),
                              chain.initial)
        assert reliability_curve(chain, [5e-324]) == [1.0]
