"""Monte-Carlo reliability simulation and the discrete-event queueing
simulator used as the oracle for the analytic formulas.

Randomness comes from counter-based Philox generators.  The Monte-Carlo
simulators run on the block engine of ``raidlab.montecarlo``: one stream
per block of replications, keyed by block index, so every estimate is
bit-identical under replay and for any worker count.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .disk import DiscreteDist


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def confidence(samples, level=0.95):
    """Student-t mean and half-width over replication samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError("need at least two samples")
    mean = float(samples.mean())
    sd = float(samples.std(ddof=1))
    if sd == 0.0:
        return mean, 0.0
    from scipy.special import stdtrit  # Student-t quantile, as stats.t.ppf
    tq = stdtrit(samples.size - 1, 0.5 + level / 2.0)
    return mean, float(tq * sd / math.sqrt(samples.size))


@dataclass
class SimReport:
    """Point estimate with its confidence interval and provenance."""

    metric: str
    estimate: float
    half_width: float
    level: float
    replications: int
    seed: int
    breakdown: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def ci(self):
        return self.estimate - self.half_width, self.estimate + self.half_width


@dataclass
class SimConfig:
    """Reliability-simulation setup."""

    nodes: int = 1               # storage nodes (hierarchical topology)
    disks_per_node: int = 1
    inter_tolerance: int = 0     # node failures tolerated (k)
    intra_tolerance: int = 0     # disk failures tolerated per node (ell)
    delta: float = 1e-6          # disk failure rate, 1/hour
    gamma: float = 0.0           # controller failure rate, 1/hour
    mu: float = 0.0              # repair rate, 1/hour (0 = no repair)
    replications: int = 10_000
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if min(self.delta, self.gamma, self.mu) < 0:
            raise ValueError("rates must be >= 0")
        if self.replications < 1:
            raise ValueError("need at least one replication")


# ---------------------------------------------------------------------------
# hierarchical array simulator


def sim_hraid_mttdl(cfg, jobs=1):
    """Mean time to data loss of a hierarchical array, no repair.

    Per replication: total failure rate Omega = (N - N_c) gamma +
    (D - N_d) delta, with N_c the controller failures and D - N_d the
    disks of live nodes; the clock advances by an exponential of rate
    Omega; the event is a controller failure with probability
    (N - N_c) gamma / Omega, landing uniformly on a live node, else a disk
    failure, landing uniformly on a live disk.  A node fails when its
    controller fails or more than ell of its disks fail; data is lost when
    more than k nodes have failed.  Loss cause records 0 for controller,
    1 for disk (the output legend's encoding).

    jobs > 1 fans blocks of replications over a process pool; results are
    identical for any worker count because streams are keyed by block.
    """
    if cfg.mu != 0.0:
        raise ValueError("the hierarchical procedure models no repair")
    if cfg.inter_tolerance >= cfg.nodes:
        raise ValueError("data is never lost: inter_tolerance >= nodes")
    from . import montecarlo
    (times, causes), extras = montecarlo.run(
        montecarlo.hraid_block, (cfg,), cfg.seed, cfg.replications, jobs)
    mean, hw = confidence(times, cfg.level)
    frac_disk = float((causes == 1).mean())
    return SimReport(
        metric="mttdl_hours",
        estimate=mean,
        half_width=hw,
        level=cfg.level,
        replications=cfg.replications,
        seed=cfg.seed,
        breakdown={"disk": frac_disk, "controller": 1.0 - frac_disk},
        extras=extras,
    )


# ---------------------------------------------------------------------------
# generic component-failure simulator


def _bd_absorption_times(n, kappa, delta, mu, regime, rng, reps):
    """Exact sampling of birth-death absorption times by visit counts.

    Levels i = 0..kappa are transient (i failed components), kappa+1
    absorbs.  Downward visit counts decompose into geometric / negative
    binomial draws; the sojourn total at level i is Gamma(visits, exit
    rate).  Distribution-exact, so it is an honest Monte-Carlo estimate.
    """
    levels = kappa + 1
    lam = np.array([(n - i) * delta for i in range(levels)])
    if regime == "angus":
        rep_rate = np.array([i * mu for i in range(levels)])
    elif regime == "chen":
        rep_rate = np.array([mu if i > 0 else 0.0 for i in range(levels)])
    else:
        raise ValueError("regime must be 'angus' or 'chen'")
    p_up = lam / (lam + rep_rate)
    visits = np.zeros((levels, reps), dtype=np.int64)
    top = levels - 1
    visits[top] = rng.geometric(p_up[top], size=reps)
    downs_from_above = visits[top] - 1
    ups_needed = visits[top]
    for i in range(top - 1, 0, -1):
        visits[i] = rng.negative_binomial(ups_needed, p_up[i]) + ups_needed
        downs = visits[i] - ups_needed
        ups_needed = visits[i] - downs_from_above
        downs_from_above = downs
    if levels > 1:
        visits[0] = downs_from_above + 1
    times = np.zeros(reps)
    for i in range(levels):
        rate = lam[i] + rep_rate[i]
        times += rng.standard_gamma(visits[i].astype(float), size=reps) / rate
    return times


def sim_generic_mttdl(n, delta, mu, regime="angus", tolerance=None,
                      predicate=None, reps=10_000, seed=0, level=0.95,
                      method="auto"):
    """MTTDL of n components failing at rate delta with repair rate mu.

    regime "chen" repairs one component at a time, oldest failure first;
    "angus" repairs every failed component concurrently.  Loss is
    |failed| > tolerance, or the first failed set (a frozenset of component
    ids) for which `predicate(failed_ids)` is True; the predicate is asked
    once per distinct set.  With a plain tolerance the exact birth-death
    sampler is used (method="auto"), otherwise an event loop.
    """
    if (tolerance is None) == (predicate is None):
        raise ValueError("give exactly one of tolerance or predicate")
    if tolerance is not None and method in ("auto", "fast"):
        rng = _rng(seed)
        times = _bd_absorption_times(n, tolerance, delta, mu, regime, rng, reps)
        mean, hw = confidence(times, level)
        return SimReport("mttdl_hours", mean, hw, level, reps, seed)
    if regime not in ("angus", "chen"):
        raise ValueError("regime must be 'angus' or 'chen'")
    from . import montecarlo
    if predicate is None:
        lost = lambda failed, down, is_fail: down > tolerance
    else:
        lost = montecarlo.memo_loss(predicate)
    (times, _), extras = montecarlo.run(
        montecarlo.loop_block, (n, delta, mu, regime, lost), seed, reps)
    mean, hw = confidence(times, level)
    return SimReport("mttdl_hours", mean, hw, level, reps, seed,
                     extras=extras)


def sim_code_mttdl(code, delta, mu, regime="angus", granularity="column",
                   reps=2000, seed=0, level=0.95):
    """MTTDL of a device array protected by an erasure code: loss occurs
    when the failed column set becomes unrecoverable.  Each distinct failed
    set is decided once per call."""
    from .codes import is_recoverable
    units = code.columns() if granularity == "column" else list(code.symbols)
    return sim_generic_mttdl(
        len(units), delta, mu, regime,
        predicate=lambda failed: not is_recoverable(
            code, [units[i] for i in sorted(failed)], granularity),
        reps=reps, seed=seed, level=level, method="loop")


# ---------------------------------------------------------------------------
# copyset loss


def sim_copyset_loss(scheme, fail_count=None, fail_fraction=None,
                     reps=10_000, seed=0, level=0.95, exact_budget=2_000_000):
    """Probability that a simultaneous outage hits a full copyset.

    Uses exact enumeration over C(N, f) outages when affordable, otherwise
    Monte-Carlo sampling of outage sets (always Monte-Carlo for fractions).
    """
    from itertools import combinations
    from . import montecarlo
    from .declustering import copysets
    n = scheme.nodes
    r = scheme.replication
    s = scheme.scatter_width
    if (fail_count is None) == (fail_fraction is None):
        raise ValueError("give exactly one of fail_count or fail_fraction")
    if fail_count is not None:
        f = fail_count
        if f < r:
            return SimReport("p_dl", 0.0, 0.0, level, 0, seed)
        if math.comb(n, f) <= exact_budget and scheme.scheme == "copyset":
            sets = copysets(scheme)
            hits = sum(any(cs <= set(pattern) for cs in sets)
                       for pattern in combinations(range(n), f))
            p = hits / math.comb(n, f)
            return SimReport("p_dl", p, 0.0, level, math.comb(n, f), seed,
                             extras={"exact": True})
    sets = None
    if scheme.scheme == "copyset":
        sets = np.array(sorted(sorted(cs) for cs in copysets(scheme)))
    (losses,), extras = montecarlo.run(
        montecarlo.copyset_block, (n, r, s, fail_count, fail_fraction, sets),
        seed, reps)
    mean, hw = confidence(losses, level)
    return SimReport("p_dl", mean, hw, level, reps, seed, extras=extras)


# ---------------------------------------------------------------------------
# queueing simulator


def sampler(spec):
    """Service/duration sampler from a small spec tuple.

    ("exp", mean) | ("det", value) | ("uniform", width) |
    ("erlang", k, mean) | ("discrete", DiscreteDist).
    """
    kind = spec[0]
    if kind == "exp":
        return lambda rng, size=None: rng.exponential(spec[1], size)
    if kind == "det":
        return (lambda rng, size=None:
                np.full(size, spec[1]) if size is not None else spec[1])
    if kind == "uniform":
        return lambda rng, size=None: rng.uniform(0.0, spec[1], size)
    if kind == "erlang":
        k, mean = spec[1], spec[2]
        return (lambda rng, size=None:
                rng.standard_gamma(k, size) * (mean / k))
    if kind == "discrete":
        dist = spec[1]
        return lambda rng, size=None: dist.sample(rng, size)
    raise ValueError("unknown sampler %r" % (spec,))


def spec_mean(spec):
    kind = spec[0]
    if kind == "exp":
        return spec[1]
    if kind == "det":
        return spec[1]
    if kind == "uniform":
        return spec[1] / 2.0
    if kind == "erlang":
        return spec[2]
    if kind == "discrete":
        return spec[1].mean
    raise ValueError("unknown sampler %r" % (spec,))


def _lindley_waits(arrivals_inter, services):
    """FCFS single-server waits via the Lindley recursion, vectorized.

    W_{n+1} = max(0, W_n + S_n - A_{n+1}) ==> W_n = C_{n-1} - min(0,
    running min of C) with C the cumulative sum of S - A.
    """
    x = services[:-1] - arrivals_inter[1:]
    c = np.cumsum(x)
    floor = np.minimum.accumulate(np.minimum(c, 0.0))
    waits = np.empty(len(services))
    waits[0] = 0.0
    waits[1:] = c - floor
    return waits


def _batch_ci(values, n_batches, level):
    usable = len(values) - len(values) % n_batches
    batches = np.asarray(values[:usable]).reshape(n_batches, -1).mean(axis=1)
    return confidence(batches, level)


class _QueueParams(dict):
    """A queue model's params: a key the model reads and the dict lacks is
    a ValueError that names it."""

    def __init__(self, model, params):
        super().__init__(params)
        self.model = model

    def __missing__(self, key):
        raise ValueError("%s queue needs params %r" % (self.model, key))


def sim_queue(model, params, n_customers=200_000, warmup=10_000, seed=0,
              level=0.95, n_batches=20):
    """Event-driven single-server (or fork-join) queue statistics.

    model: "mg1" | "mg1_priority" | "fj" | "vsm" | "pcm" | "gim1_erlang2".
    params is a dict; common keys: arrival_rate (1/ms), service spec.
    Returns a dict with mean wait/response and batch-means CIs.
    """
    params = _QueueParams(model, params)
    rng = _rng(seed)
    if model == "mg1":
        lam = params["arrival_rate"]
        svc = sampler(params["service"])
        rho = lam * spec_mean(params["service"])
        if rho >= 1:
            raise ValueError("unstable: rho=%.3f" % rho)
        inter = rng.exponential(1.0 / lam, n_customers)
        serv = svc(rng, n_customers)
        waits = _lindley_waits(inter, serv)[warmup:]
        resp = waits + serv[warmup:]
        wm, wh = _batch_ci(waits, n_batches, level)
        rm, rh = _batch_ci(resp, n_batches, level)
        return {"wait": wm, "wait_hw": wh, "response": rm, "response_hw": rh,
                "rho": rho, "n": len(waits)}

    if model == "gim1_erlang2":
        lam = params["arrival_rate"]
        mean_svc = params["service_mean"]
        inter = rng.standard_gamma(2.0, n_customers) / (2.0 * lam)
        serv = rng.exponential(mean_svc, n_customers)
        waits = _lindley_waits(inter, serv)[warmup:]
        wm, wh = _batch_ci(waits, n_batches, level)
        return {"wait": wm, "wait_hw": wh, "rho": lam * mean_svc,
                "n": len(waits)}

    if model == "fj":
        lam = params["arrival_rate"]
        n_ways = params["ways"]
        svc = sampler(params["service"])
        inter = rng.exponential(1.0 / lam, n_customers)
        resp = np.empty((n_ways, n_customers))
        for b in range(n_ways):
            serv = svc(rng, n_customers)
            resp[b] = _lindley_waits(inter, serv) + serv
        fj = resp.max(axis=0)[warmup:]
        rm, rh = _batch_ci(fj, n_batches, level)
        branch = resp[:, warmup:].mean()
        return {"response": rm, "response_hw": rh,
                "branch_response": float(branch), "n": len(fj)}

    if model == "mg1_priority":
        return _sim_priority(params, n_customers, warmup, rng, level, n_batches)
    if model == "vsm":
        return _sim_vsm(params, n_customers, warmup, rng, level, n_batches)
    if model == "pcm":
        return _sim_pcm(params, n_customers, warmup, rng, level, n_batches)
    raise ValueError("unknown queue model %r" % (model,))


def _sim_priority(params, n_customers, warmup, rng, level, n_batches):
    """Two-class nonpreemptive head-of-line priority, FCFS within class.

    At every service completion (current time t) the arrivals up to t are
    admitted and the high-priority queue is drained first.
    """
    lam_h = params["arrival_rate_high"]
    lam_l = params["arrival_rate_low"]
    svc_h = sampler(params["service_high"])
    svc_l = sampler(params["service_low"])
    lam = lam_h + lam_l
    n_h = max(int(n_customers * lam_h / lam), 8)
    n_l = max(n_customers - n_h, 8)
    t_h = np.cumsum(rng.exponential(1.0 / lam_h, n_h))
    t_l = np.cumsum(rng.exponential(1.0 / lam_l, n_l))
    s_h = svc_h(rng, n_h)
    s_l = svc_l(rng, n_l)
    qh, ql = deque(), deque()
    ih = il = 0
    t = 0.0
    waits_h, waits_l = [], []
    while True:
        while ih < n_h and t_h[ih] <= t:
            qh.append((t_h[ih], s_h[ih]))
            ih += 1
        while il < n_l and t_l[il] <= t:
            ql.append((t_l[il], s_l[il]))
            il += 1
        if qh:
            arr, s = qh.popleft()
            waits_h.append(t - arr)
            t += s
        elif ql:
            arr, s = ql.popleft()
            waits_l.append(t - arr)
            t += s
        else:
            nxt = []
            if ih < n_h:
                nxt.append(t_h[ih])
            if il < n_l:
                nxt.append(t_l[il])
            if not nxt:
                break
            t = min(nxt)
    cut_h = max(int(len(waits_h) * warmup / n_customers), 1)
    cut_l = max(int(len(waits_l) * warmup / n_customers), 1)
    wm, wh = _batch_ci(np.asarray(waits_h[cut_h:]), n_batches, level)
    lm, lh = _batch_ci(np.asarray(waits_l[cut_l:]), n_batches, level)
    return {"wait_high": wm, "wait_high_hw": wh,
            "wait_low": lm, "wait_low_hw": lh,
            "n": len(waits_h) + len(waits_l)}


def _sim_vsm(params, n_customers, warmup, rng, level, n_batches):
    """M/G/1 with rebuild vacations: a type-1 vacation (seek + unit read)
    when the queue drains, then type-2 unit reads until an arrival lands
    during a vacation.  Vacations are never preempted.

    split_seek=True abandons the unit read when the arrival interrupts the
    seek part of a type-1 vacation (needs "vacation1_seek" and "read_part"
    sampler specs).
    """
    lam = params["arrival_rate"]
    svc = sampler(params["service"])
    v1 = sampler(params["vacation1"])
    v2 = sampler(params["vacation2"])
    split_seek = params.get("split_seek", False)
    preempt = params.get("preempt", False)  # abandon the read at an arrival
    if split_seek:
        seek_part = sampler(params["vacation1_seek"])
        read_part = sampler(params["read_part"])
    arr = np.cumsum(rng.exponential(1.0 / lam, n_customers))
    serv = svc(rng, n_customers)
    waits = np.empty(n_customers)
    units_per_idle = []
    t = 0.0
    i = 0
    while i < n_customers:
        if arr[i] <= t:
            waits[i] = t - arr[i]
            t += serv[i]
            i += 1
            continue
        units = 0
        first = True
        while i < n_customers and arr[i] > t:
            if first and split_seek:
                s_len = seek_part(rng)
                if arr[i] <= t + s_len:
                    t += s_len  # arrival during the seek: skip the read
                    break
                t += s_len + read_part(rng)
            else:
                v_len = v1(rng) if first else v2(rng)
                if v_len <= 0.0:
                    t = arr[i]  # degenerate vacation: plain idle wait
                    break
                if preempt and arr[i] <= t + v_len:
                    t = arr[i]  # drop the in-flight read on arrival
                    break
                t += v_len
            units += 1
            first = False
        units_per_idle.append(units)
    resp = waits + serv
    wm, wh = _batch_ci(waits[warmup:], n_batches, level)
    rm, rh = _batch_ci(resp[warmup:], n_batches, level)
    return {"wait": wm, "wait_hw": wh, "response": rm, "response_hw": rh,
            "mean_units_per_idle": float(np.mean(units_per_idle)),
            "n": n_customers - warmup}


def _sim_pcm(params, n_customers, warmup, rng, level, n_batches):
    """M/G/1 FCFS with one permanent rebuild customer.

    The rebuild customer re-joins the tail of the FCFS queue the moment its
    service completes, so service order is join order: the earlier of the
    next external arrival and the rebuild's last completion goes first.
    """
    lam = params["arrival_rate"]
    svc = sampler(params["service"])
    ru = sampler(params["rebuild_service"])
    arr = np.cumsum(rng.exponential(1.0 / lam, n_customers))
    serv = svc(rng, n_customers)
    waits = np.empty(n_customers)
    ru_waits = []
    t_free = 0.0
    rejoin = 0.0
    i = 0
    while i < n_customers:
        if rejoin <= arr[i]:
            start = max(t_free, rejoin)
            ru_waits.append(start - rejoin)
            t_free = start + ru(rng)
            rejoin = t_free
        else:
            start = max(t_free, arr[i])
            waits[i] = start - arr[i]
            t_free = start + serv[i]
            i += 1
    wm, wh = _batch_ci(waits[warmup:], n_batches, level)
    resp = waits + serv
    rm, rh = _batch_ci(resp[warmup:], n_batches, level)
    return {"wait": wm, "wait_hw": wh, "response": rm, "response_hw": rh,
            "rebuild_wait": float(np.mean(ru_waits)) if ru_waits else 0.0,
            "rebuild_reads": len(ru_waits),
            "n": n_customers - warmup}
