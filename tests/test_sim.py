import math

import numpy as np
import pytest
from scipy import stats

from raidlab import builders
from raidlab.ctmc import mean_time_to_absorption, build_ctmc
from raidlab.declustering import CopysetScheme
from raidlab.disk import MomentSet
from raidlab.queueing import harmonic, mg1_wait, mg1_head_of_line_wait, \
    gim1_erlang2_wait
from raidlab.rebuild import vacation_stats, vsm_wait
from raidlab.disk import Deterministic
from raidlab.montecarlo import BLOCK, loop_block, run_blocks, window_lost
from raidlab.sim import (
    SimConfig, confidence, sim_code_mttdl, sim_copyset_loss,
    sim_generic_mttdl, sim_hraid_mttdl, sim_queue,
)


def z_score(rep, want):
    """Distance of an estimate from the exact answer in standard errors."""
    tq = stats.t.ppf(0.5 + rep.level / 2.0, rep.replications - 1)
    return (rep.estimate - want) / (rep.half_width / tq)


def hraid_chain(nodes, disks_per_node, inter_tolerance, intra_tolerance,
                delta, gamma):
    """Exact chain of the hierarchical procedure without repair.

    A state is (sorted failed-disk counts of live nodes, controller
    failures, nodes lost through disks).  Controller events arrive at rate
    (N - N_c) gamma and land on a live node; only disks of live nodes fail.
    """
    start = ((0,) * nodes, 0, 0)
    edges = {}
    todo = [start]
    seen = {start}
    while todo:
        state = todo.pop()
        live, n_c, n_dd = state
        moves = []
        ctrl_each = (nodes - n_c) * gamma / len(live)
        for i, j in enumerate(live):
            rest = live[:i] + live[i + 1:]
            moves.append(((rest, n_c + 1, n_dd), ctrl_each))
            if j + 1 > intra_tolerance:
                moves.append(((rest, n_c, n_dd + 1),
                              (disks_per_node - j) * delta))
            else:
                moves.append(((tuple(sorted(rest + (j + 1,))), n_c, n_dd),
                              (disks_per_node - j) * delta))
        for nxt, rate in moves:
            if nodes - len(nxt[0]) > inter_tolerance:
                nxt = "loss"
            edges[state, nxt] = edges.get((state, nxt), 0.0) + rate
            if nxt != "loss" and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return build_ctmc([(a, b, r) for (a, b), r in edges.items()],
                      absorbing=["loss"], states=[start])


def birth_death_chain(n, kappa, delta, mu, regime):
    """Failed-count chain: up at (n - i) delta, down at i mu (angus) or
    mu (chen), absorbing at kappa + 1 failures."""
    edges = [(i, i + 1, (n - i) * delta) for i in range(kappa + 1)]
    edges += [(i, i - 1, i * mu if regime == "angus" else mu)
              for i in range(1, kappa + 1)]
    return build_ctmc(edges, absorbing=[kappa + 1])


class TestConfidence:
    def test_constant_samples(self):
        mean, hw = confidence([5.0, 5.0, 5.0])
        assert mean == 5.0
        assert hw == 0.0

    def test_unit_exponential(self):
        rng = np.random.default_rng(4)
        mean, hw = confidence(rng.exponential(1.0, 10_000))
        assert mean == pytest.approx(1.0, abs=0.05)
        assert hw == pytest.approx(0.02, abs=0.01)
        assert mean - hw <= 1.0 <= mean + hw

    def test_coverage_rate(self):
        rng = np.random.default_rng(9)
        covered = 0
        for _ in range(500):
            mean, hw = confidence(rng.exponential(1.0, 40), level=0.95)
            covered += (mean - hw <= 1.0 <= mean + hw)
        # binomial(500, 0.95): nearly all mass within (0.92, 0.98)
        assert 0.92 <= covered / 500 <= 0.985

    def test_needs_two(self):
        with pytest.raises(ValueError):
            confidence([1.0])

    def test_half_width_is_student_t_exactly(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 6, 30, 200, 10_000, 20_000):
            samples = rng.exponential(1.0, n)
            sd = float(samples.std(ddof=1))
            for level in (0.5, 0.9, 0.95, 0.99, 0.99999):
                want = float(stats.t.ppf(0.5 + level / 2.0, n - 1)
                             * sd / math.sqrt(n))
                assert confidence(samples, level)[1] == want


class TestReplay:
    def test_bit_identical(self):
        cfg = SimConfig(nodes=2, disks_per_node=4, intra_tolerance=1,
                        delta=1e-5, replications=200, seed=99)
        a = sim_hraid_mttdl(cfg)
        b = sim_hraid_mttdl(cfg)
        assert a.estimate == b.estimate
        assert a.half_width == b.half_width

    def test_seed_changes_estimate(self):
        cfg1 = SimConfig(nodes=2, disks_per_node=4, intra_tolerance=1,
                         delta=1e-5, replications=200, seed=1)
        cfg2 = SimConfig(nodes=2, disks_per_node=4, intra_tolerance=1,
                         delta=1e-5, replications=200, seed=2)
        assert sim_hraid_mttdl(cfg1).estimate != sim_hraid_mttdl(cfg2).estimate


def _raw_block(rng, size):
    """A block that reports its stream: seed state and first raw draws."""
    return (rng.bit_generator.seed_seq.generate_state(4),
            rng.bit_generator.random_raw(16)), size


class TestStreams:
    def test_slice_matches_spawned_children(self):
        seed, n, lo, hi = 20240817, 40, 17, 23
        children = np.random.SeedSequence(seed).spawn(n)[lo:hi]
        parts, events = run_blocks(_raw_block, (), seed, n * BLOCK, lo, hi)
        assert events == (hi - lo) * BLOCK
        for (state, raw), child in zip(parts, children, strict=True):
            assert np.array_equal(state, child.generate_state(4))
            assert np.array_equal(raw, np.random.Philox(child).random_raw(16))

    def test_slice_builds_only_its_own_streams(self, monkeypatch):
        built = []
        real = np.random.SeedSequence

        def recording(*args, **kwargs):
            seq = real(*args, **kwargs)
            built.append(seq.spawn_key)
            return seq

        monkeypatch.setattr(np.random, "SeedSequence", recording)
        run_blocks(_raw_block, (), 7, 40 * BLOCK, 17, 23)
        assert built == [(b,) for b in range(17, 23)]

    def test_partial_last_block(self):
        parts, events = run_blocks(_raw_block, (), 7, 2 * BLOCK + 5, 0, 3)
        assert events == 2 * BLOCK + 5

    def test_worker_count_invisible(self):
        # three blocks, the last one partial
        cfg = SimConfig(nodes=2, disks_per_node=4, intra_tolerance=1,
                        delta=1e-5, replications=2 * BLOCK + 201, seed=5)
        a = sim_hraid_mttdl(cfg, jobs=1)
        assert a.extras["blocks"] == 3
        assert a.extras["events"] >= a.replications
        for jobs in (2, 3):
            b = sim_hraid_mttdl(cfg, jobs=jobs)
            assert (a.estimate, a.half_width, a.breakdown, a.extras) == \
                (b.estimate, b.half_width, b.breakdown, b.extras)


class TestHraid:
    def test_first_failure_kills(self):
        # k = ell = 0, one disk per node, no controllers: min of N exponentials
        n = 8
        delta = 1e-4
        cfg = SimConfig(nodes=n, disks_per_node=1, delta=delta,
                        replications=4000, seed=7)
        rep = sim_hraid_mttdl(cfg)
        want = 1.0 / (n * delta)
        assert abs(rep.estimate - want) <= 2 * rep.half_width

    def test_single_node_matches_ctmc(self):
        # one node, 10 disks, tolerate 1, no repair
        cfg = SimConfig(nodes=1, disks_per_node=10, intra_tolerance=1,
                        delta=1e-5, replications=6000, seed=21)
        rep = sim_hraid_mttdl(cfg)
        chain = build_ctmc([(0, 1, 10e-5), (1, 2, 9e-5)], absorbing=[2])
        want, _, _ = mean_time_to_absorption(chain)
        assert abs(rep.estimate - want) <= 2 * rep.half_width

    def test_intra_beats_inter_at_equal_redundancy(self):
        # double intra / single inter outlasts single intra / double inter
        common = dict(nodes=4, disks_per_node=4, delta=1e-5, gamma=1e-7,
                      replications=4000, seed=13)
        strong_intra = sim_hraid_mttdl(SimConfig(inter_tolerance=1,
                                                 intra_tolerance=2, **common))
        strong_inter = sim_hraid_mttdl(SimConfig(inter_tolerance=2,
                                                 intra_tolerance=1, **common))
        assert strong_intra.estimate - strong_intra.half_width > \
            strong_inter.estimate + strong_inter.half_width

    def test_controller_breakdown_recorded(self):
        cfg = SimConfig(nodes=4, disks_per_node=2, delta=1e-6, gamma=1e-4,
                        replications=500, seed=3)
        rep = sim_hraid_mttdl(cfg)
        assert rep.breakdown["controller"] > 0.5
        assert rep.breakdown["controller"] + rep.breakdown["disk"] == \
            pytest.approx(1.0)

    @pytest.mark.parametrize("config", [
        # the benchmark's validation config
        dict(nodes=4, disks_per_node=4, inter_tolerance=1,
             intra_tolerance=1, delta=1e-6, gamma=1e-7),
        # controller-heavy, as in test_controller_breakdown_recorded
        dict(nodes=4, disks_per_node=2, inter_tolerance=0,
             intra_tolerance=0, delta=1e-6, gamma=1e-4),
        # nodes lost through their disks leave the controller rate
        # (N - N_c) gamma to the live nodes
        dict(nodes=5, disks_per_node=3, inter_tolerance=2,
             intra_tolerance=0, delta=1e-5, gamma=1.2e-5),
        # losses from the first event up to the seventh: a finished row
        # left as it was would soon have no live node and no event rate
        dict(nodes=2, disks_per_node=4, inter_tolerance=0,
             intra_tolerance=3, delta=1e-3, gamma=1e-3),
    ])
    def test_matches_hierarchical_chain(self, config):
        want, _, _ = mean_time_to_absorption(hraid_chain(**config))
        rep = sim_hraid_mttdl(SimConfig(replications=20_000, seed=41,
                                        **config))
        assert abs(z_score(rep, want)) <= 4

    def test_data_never_lost_rejected(self):
        with pytest.raises(ValueError):
            sim_hraid_mttdl(SimConfig(nodes=2, inter_tolerance=2))
        with pytest.raises(ValueError):
            sim_hraid_mttdl(SimConfig(nodes=2, disks_per_node=2,
                                      intra_tolerance=2, delta=1e-3,
                                      replications=10))


class TestGenericMttdl:
    def test_any_failure_predicate(self):
        n, delta = 12, 1e-4
        rep = sim_generic_mttdl(n, delta, mu=0.0, tolerance=0,
                                reps=40_000, seed=5)
        assert abs(rep.estimate - 1 / (n * delta)) <= 2 * rep.half_width

    def test_fast_path_matches_event_loop(self):
        kw = dict(n=10, delta=1 / 2000, mu=1.0, regime="angus", tolerance=1,
                  reps=4000)
        fast = sim_generic_mttdl(seed=11, method="fast", **kw)
        loop = sim_generic_mttdl(seed=12, method="loop", **kw)
        overlap = abs(fast.estimate - loop.estimate) <= \
            fast.half_width + loop.half_width
        assert overlap

    @pytest.mark.parametrize("regime", ["angus", "chen"])
    def test_event_loop_matches_chain(self, regime):
        n, kappa, delta, mu = 8, 2, 1 / 20.0, 1.0
        want, _, _ = mean_time_to_absorption(
            birth_death_chain(n, kappa, delta, mu, regime))
        rep = sim_generic_mttdl(n, delta, mu, regime=regime, tolerance=kappa,
                                reps=5000, seed=32, method="loop")
        assert abs(z_score(rep, want)) <= 4
        assert rep.extras["events"] >= rep.replications

    @pytest.mark.parametrize("regime", ["angus", "chen"])
    def test_repair_pick(self, regime):
        # one replication at a time, its failed set recorded after every
        # event: chen repairs the oldest failure, angus a random one
        oldest_first = repairs = 0
        for seed in range(40):
            history = [np.zeros(6, dtype=bool)]

            def lost(failed, down, is_fail):
                history.append(failed[0].copy())
                return down > 3

            loop_block(np.random.default_rng(seed), 1, 6, 0.3, 1.0, regime,
                        lost)
            queue = []
            for before, after in zip(history, history[1:]):
                (col,) = np.flatnonzero(before != after)
                if after[col]:
                    queue.append(col)
                    continue
                if len(queue) > 1:
                    repairs += 1
                    oldest_first += col == queue[0]
                queue.remove(col)
        assert repairs > 100
        if regime == "chen":
            assert oldest_first == repairs
        else:
            assert 0.2 < oldest_first / repairs < 0.7

    def test_chen_regime_matches_chain(self):
        delta, mu = 1 / 800.0, 0.8
        n, kappa = 8, 2
        want, _, _ = mean_time_to_absorption(
            birth_death_chain(n, kappa, delta, mu, "chen"))
        rep = sim_generic_mttdl(n, delta, mu, regime="chen", tolerance=kappa,
                                reps=20_000, seed=31)
        assert abs(rep.estimate - want) <= 2.5 * rep.half_width

    def test_code_predicate_mirrors_chain(self):
        # raid5(6) column predicate equals a plain threshold of 1
        code = builders.raid5(6)
        delta, mu = 1e-4, 0.05
        rep = sim_code_mttdl(code, delta, mu, regime="chen", reps=3000,
                             seed=17)
        edges = [(0, 1, 6 * delta), (1, 0, mu), (1, 2, 5 * delta)]
        chain = build_ctmc(edges, absorbing=[2])
        want, _, _ = mean_time_to_absorption(chain)
        assert abs(rep.estimate - want) <= 3 * rep.half_width

    def test_code_predicate_decides_each_failed_set_once(self, monkeypatch):
        from raidlab import codes
        asked = []
        real = codes.is_recoverable

        def counting(code, erasures, granularity="symbol"):
            asked.append(frozenset(erasures))
            return real(code, erasures, granularity)

        monkeypatch.setattr(codes, "is_recoverable", counting)
        code = builders.was_lrc_6_2_2()
        rep = sim_code_mttdl(code, 0.1, 1.0, regime="angus", reps=100,
                             seed=7)
        assert 0 < len(asked) == len(set(asked))
        # the estimate of the plain, unmemoised predicate, bit for bit
        cols = code.columns()
        ref = sim_generic_mttdl(
            len(cols), 0.1, 1.0, regime="angus", reps=100, seed=7,
            predicate=lambda failed: not real(
                code, [cols[i] for i in failed], "column"))
        assert (rep.estimate, rep.half_width) == \
            (ref.estimate, ref.half_width)


def _random_scheme_lost(failed, n, r, s):
    """Scalar loss check of random replication: some failed primary has
    >= R-1 failed nodes in its successor window."""
    failed = set(failed)
    for i in failed:
        hits = 0
        for j in range(1, s + 1):
            if (i + j) % n in failed:
                hits += 1
                if hits >= r - 1:
                    return True
    return False


def _outage_masks(n, outages):
    mask = np.zeros((len(outages), n), dtype=bool)
    for row, failed in enumerate(outages):
        mask[row, list(failed)] = True
    return mask


class TestCopysetSim:
    @pytest.mark.parametrize("r,s", [(3, 4), (2, 1), (3, 8), (4, 5)])
    def test_window_matches_scalar_on_small_subsets(self, r, s):
        from itertools import combinations
        outages = [c for f in (3, 4) for c in combinations(range(9), f)]
        got = window_lost(_outage_masks(9, outages), r, s)
        want = [_random_scheme_lost(c, 9, r, s) for c in outages]
        assert got.tolist() == want

    def test_window_matches_scalar_on_big_cluster(self):
        rng = np.random.default_rng(17)
        n, r, s = 5000, 3, 50
        outages = [rng.choice(n, size=f, replace=False)
                   for f in rng.integers(1, 120, size=200)]
        got = window_lost(_outage_masks(n, outages), r, s)
        want = [_random_scheme_lost(c.tolist(), n, r, s) for c in outages]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)

    def test_exact_enumeration_small(self):
        perms = [list(range(9)), [0, 3, 6, 1, 4, 7, 2, 5, 8]]
        scheme = CopysetScheme(9, 3, 4, scheme="copyset", permutations=perms)
        rep = sim_copyset_loss(scheme, fail_count=3)
        assert rep.extras.get("exact")
        assert rep.estimate == pytest.approx(6 / 84)

    def test_random_scheme_montecarlo(self):
        scheme = CopysetScheme(9, 3, 4, scheme="random")
        rep = sim_copyset_loss(scheme, fail_count=3, reps=20_000, seed=2)
        assert abs(rep.estimate - 54 / 84) <= 3 * rep.half_width
        assert rep.extras == {"events": 20_000, "blocks": 5}

    def test_fail_fraction_matches_enumeration(self):
        # each node down with probability f: exact by summing over all
        # 2^9 outage sets with the scalar loss check
        from itertools import combinations
        f = 0.3
        want = sum(f ** k * (1 - f) ** (9 - k)
                   for k in range(10) for c in combinations(range(9), k)
                   if _random_scheme_lost(c, 9, 3, 4))
        scheme = CopysetScheme(9, 3, 4, scheme="random")
        rep = sim_copyset_loss(scheme, fail_fraction=f, reps=20_000, seed=6)
        assert abs(z_score(rep, want)) <= 4

    def test_copyset_scheme_montecarlo(self):
        perms = [list(range(9)), [0, 3, 6, 1, 4, 7, 2, 5, 8]]
        scheme = CopysetScheme(9, 3, 4, scheme="copyset", permutations=perms)
        rep = sim_copyset_loss(scheme, fail_count=3, reps=20_000, seed=4,
                               exact_budget=0)
        assert abs(z_score(rep, 6 / 84)) <= 4

    def test_zero_failures(self):
        scheme = CopysetScheme(9, 3, 4, scheme="random")
        rep = sim_copyset_loss(scheme, fail_count=0)
        assert rep.estimate == 0.0

    def test_big_cluster_outage_is_near_certain_loss(self):
        scheme = CopysetScheme(5000, 3, 50, scheme="random")
        rep = sim_copyset_loss(scheme, fail_fraction=0.01, reps=300, seed=8)
        assert rep.estimate > 0.9
        wider = CopysetScheme(5000, 3, 100, scheme="random")
        rep = sim_copyset_loss(wider, fail_fraction=0.01, reps=300, seed=8)
        assert rep.estimate > 0.99


MS = 1.0  # arrival rates below are per ms


class TestQueueSim:
    def test_mm1_wait(self):
        res = sim_queue("mg1", {"arrival_rate": 0.05, "service": ("exp", 10.0)},
                        n_customers=400_000, seed=42)
        # rho = 0.5: W = 10
        assert res["wait"] == pytest.approx(10.0, rel=0.05)

    def test_md1_wait_analytic(self):
        svc = MomentSet.deterministic(8.0)
        want = mg1_wait(50.0, svc).wait
        res = sim_queue("mg1", {"arrival_rate": 0.05, "service": ("det", 8.0)},
                        n_customers=400_000, seed=43)
        assert res["wait"] == pytest.approx(want, rel=0.05)

    def test_gim1_erlang2(self):
        want = gim1_erlang2_wait(50.0, 0.1)
        res = sim_queue("gim1_erlang2",
                        {"arrival_rate": 0.05, "service_mean": 10.0},
                        n_customers=400_000, seed=44)
        assert res["wait"] == pytest.approx(want, rel=0.07)

    def test_priority_high_class(self):
        svc = MomentSet.exponential(10.0)
        lam_h = 0.03
        lam_l = 0.03
        # pooled second moment with identical classes
        want = mg1_head_of_line_wait((lam_h + lam_l) * 1000.0, svc,
                                     lam_h * 10.0)
        res = sim_queue("mg1_priority",
                        {"arrival_rate_high": lam_h, "arrival_rate_low": lam_l,
                         "service_high": ("exp", 10.0),
                         "service_low": ("exp", 10.0)},
                        n_customers=400_000, seed=45)
        assert res["wait_high"] == pytest.approx(want, rel=0.05)

    def test_fj_two_way_flatto_hahn(self):
        rho = 0.5
        res = sim_queue("fj", {"arrival_rate": 0.05, "ways": 2,
                               "service": ("exp", 10.0)},
                        n_customers=300_000, seed=46)
        r = 10.0 / (1 - rho)
        want = (12 - rho) / 8 * r
        assert res["response"] == pytest.approx(want, rel=0.03)

    def test_fj_bounded_by_harmonic_max(self):
        rho = 0.5
        r = 10.0 / (1 - rho)
        for ways in (2, 4, 8):
            res = sim_queue("fj", {"arrival_rate": 0.05, "ways": ways,
                                   "service": ("exp", 10.0)},
                            n_customers=150_000, seed=47)
            assert res["response"] <= harmonic(ways) * r * 1.01

    def test_vsm_wait_analytic(self):
        svc = MomentSet.exponential(10.0)
        v1 = Deterministic(12.0)
        v2 = Deterministic(8.0)
        lam_s = 50.0
        vac = vacation_stats(v1, v2, lam_s)
        want = vsm_wait(lam_s, svc, vac).wait
        res = sim_queue("vsm", {"arrival_rate": 0.05,
                                "service": ("exp", 10.0),
                                "vacation1": ("det", 12.0),
                                "vacation2": ("det", 8.0)},
                        n_customers=300_000, seed=48)
        assert res["wait"] == pytest.approx(want, rel=0.03)
        assert res["mean_units_per_idle"] == pytest.approx(vac.n_track,
                                                           rel=0.03)

    def test_zero_vacations_reduce_to_mg1(self):
        base = sim_queue("mg1", {"arrival_rate": 0.05,
                                 "service": ("exp", 10.0)},
                         n_customers=200_000, seed=50)
        vsm = sim_queue("vsm", {"arrival_rate": 0.05,
                                "service": ("exp", 10.0),
                                "vacation1": ("det", 0.0),
                                "vacation2": ("det", 0.0)},
                        n_customers=200_000, seed=50)
        assert vsm["wait"] == pytest.approx(base["wait"], rel=0.05)

    def test_pcm_slower_than_vsm(self):
        vsm = sim_queue("vsm", {"arrival_rate": 0.05,
                                "service": ("exp", 10.0),
                                "vacation1": ("det", 8.33),
                                "vacation2": ("det", 8.33)},
                        n_customers=200_000, seed=51)
        pcm = sim_queue("pcm", {"arrival_rate": 0.05,
                                "service": ("exp", 10.0),
                                "rebuild_service": ("det", 8.33)},
                        n_customers=200_000, seed=51)
        assert pcm["response"] >= vsm["response"]

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            sim_queue("mg1", {"arrival_rate": 0.2, "service": ("exp", 10.0)})


class TestTightOracle:
    def test_mg1_within_two_percent_at_half_load(self):
        svc = MomentSet(8.0, 100.0, 1800.0)
        want = mg1_wait(62.5, svc).wait  # rho = 0.5
        spec = ("erlang", 2, 8.0)
        import raidlab.sim as S
        # distribution with matching first two moments: Erlang-2 mean 8
        # (m2 = 96) is close; use the exact M/G/1 formula for that service
        from raidlab.disk import MomentSet as MS
        erl = MS(8.0, 96.0, 1536.0)
        want = mg1_wait(62.5, erl).wait
        res = sim_queue("mg1", {"arrival_rate": 0.0625, "service": spec},
                        n_customers=600_000, seed=77)
        assert abs(res["wait"] - want) <= 0.02 * want


class TestConvergence:
    def test_ci_shrinks_like_root_n(self):
        kw = dict(n=10, delta=1 / 2000, mu=1.0, regime="chen", tolerance=1)
        small = sim_generic_mttdl(reps=1000, seed=5, **kw)
        big = sim_generic_mttdl(reps=16_000, seed=5, **kw)
        ratio = small.half_width / big.half_width
        assert 2.5 <= ratio <= 6.5  # expect ~4 with sampling noise
