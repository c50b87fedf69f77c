"""Monte-Carlo reliability simulation and the discrete-event queueing
simulator used as the oracle for the analytic formulas.

Randomness comes from counter-based Philox generators.  The Monte-Carlo
simulators run on the block engine of ``raidlab.montecarlo``: one stream
per block of replications, keyed by block index, so every estimate is
bit-identical under replay and for any worker count.
"""

import math
from dataclasses import dataclass, field

import numpy as np


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
    failed = np.arange(levels)
    lam = (n - failed) * delta
    rep_rate = failed * mu if regime == "angus" else \
        np.where(failed > 0, mu, 0.0)
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
    visits[0] = downs_from_above + 1  # with one level, the same draw
    times = np.zeros(reps)
    for i in range(levels):
        rate = lam[i] + rep_rate[i]
        times += rng.standard_gamma(visits[i].astype(float), size=reps) / rate
    return times


def _check_model(delta, mu, regime):
    if not (delta > 0 and mu >= 0):
        raise ValueError("need delta > 0 and mu >= 0, got delta=%r, mu=%r"
                         % (delta, mu))
    if regime not in ("angus", "chen"):
        raise ValueError("regime must be 'angus' or 'chen'")


def sim_generic_mttdl(n, delta, mu, regime="angus", tolerance=None,
                      reps=10_000, seed=0, level=0.95, method="auto"):
    """MTTDL of n components failing at rate delta with repair rate mu:
    data is lost at the first failure that leaves more than `tolerance`
    components failed.

    regime "chen" repairs one component at a time, oldest failure first;
    "angus" repairs every failed component concurrently.  method "auto"
    samples the birth-death chain exactly; "loop" runs the event loop of
    ``montecarlo.loop_block`` as a cross-check.  An argument that never
    loses data or cannot be sampled is a ValueError before any draw."""
    if method not in ("auto", "loop"):
        raise ValueError("unknown method %r" % (method,))
    if tolerance is None or not 0 <= tolerance < n:
        raise ValueError("tolerance must be in 0..%d for n=%d components, "
                         "got %r" % (n - 1, n, tolerance))
    _check_model(delta, mu, regime)
    if method == "loop":
        return _loop_mttdl((n, delta, mu, regime, tolerance), reps, seed,
                           level)
    times = _bd_absorption_times(n, tolerance, delta, mu, regime, _rng(seed),
                                 reps)
    return SimReport(*confidence(times, level), level, reps, seed)


def sim_code_mttdl(code, delta, mu, regime="angus", reps=2000, seed=0,
                   level=0.95):
    """MTTDL of a device array protected by an erasure code: data is lost
    at the first failure whose failed columns the code cannot recover.
    The event loop looks each failed set up in the code's table of
    recoverable sets, built once before any draw; a table over the
    rank-test budget raises BudgetExceeded."""
    from .codes import recoverable_sets
    _check_model(delta, mu, regime)
    table = recoverable_sets(code, "column")
    n = len(code.columns())
    return _loop_mttdl((n, delta, mu, regime, table[-1].bit_count(), table),
                       reps, seed, level)


def _loop_mttdl(args, reps, seed, level):
    from . import montecarlo
    (times, _), extras = montecarlo.run(montecarlo.loop_block, args, seed,
                                        reps)
    return SimReport(*confidence(times, level), level, reps, seed,
                     extras=extras)


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
            return SimReport(0.0, 0.0, level, 0, seed)
        if math.comb(n, f) <= exact_budget and scheme.scheme == "copyset":
            sets = copysets(scheme)
            hits = sum(any(cs <= set(pattern) for cs in sets)
                       for pattern in combinations(range(n), f))
            p = hits / math.comb(n, f)
            return SimReport(p, 0.0, level, math.comb(n, f), seed,
                             extras={"exact": True})
    sets = None
    if scheme.scheme == "copyset":
        sets = np.array(sorted(sorted(cs) for cs in copysets(scheme)))
    (losses,), extras = montecarlo.run(
        montecarlo.copyset_block, (n, r, s, fail_count, fail_fraction, sets),
        seed, reps)
    mean, hw = confidence(losses, level)
    return SimReport(mean, hw, level, reps, seed, extras=extras)


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
    if kind in ("exp", "det"):
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
    # in place, so at most three customer arrays are live, not five; the
    # arithmetic is unchanged
    c = np.subtract(services[:-1], arrivals_inter[1:])
    np.cumsum(c, out=c)
    floor = np.minimum(c, 0.0)
    np.minimum.accumulate(floor, out=floor)
    waits = np.empty(len(services))
    waits[0] = 0.0
    np.subtract(c, floor, out=waits[1:])
    return waits


def _batch_ci(values, n_batches, level):
    usable = len(values) - len(values) % n_batches
    batches = np.asarray(values[:usable]).reshape(n_batches, -1).mean(axis=1)
    return confidence(batches, level)


def _wait_response(waits, serv, n_batches, level):
    """Batch-means wait and response (wait plus service) with half-widths."""
    wm, wh = _batch_ci(waits, n_batches, level)
    rm, rh = _batch_ci(waits + serv, n_batches, level)
    return {"wait": wm, "wait_hw": wh, "response": rm, "response_hw": rh}


class _QueueParams(dict):
    """A queue model's params: a key the model reads and the dict lacks is
    a ValueError that names it."""

    def __init__(self, model, params):
        super().__init__(params)
        self.model = model

    def __missing__(self, key):
        raise ValueError("%s queue needs params %r" % (self.model, key))


def _enough(count, n_customers, warmup, n_batches):
    if count < n_batches:
        raise ValueError(
            "too few customers: n_customers=%d less warmup=%d leaves %d, "
            "fewer than n_batches=%d" % (n_customers, warmup, count, n_batches))


def sim_queue(model, params, n_customers=200_000, warmup=10_000, seed=0,
              level=0.95):
    """Event-driven single-server (or fork-join) queue statistics.

    model: "mg1" | "mg1_priority" | "fj" | "vsm" | "pcm" | "gim1_erlang2".
    params is a dict; common keys: arrival_rate (1/ms), service spec.
    Returns a dict with mean wait/response and batch-means CIs.

    Three rules hold for every model; breaking one is a ValueError:
    - every arrival rate is > 0;
    - stability: rho < 1, with rho the arrival rate times the mean service
      time, summed over both classes for mg1_priority;
    - enough customers: n_customers - warmup >= n_batches = 20, so every
      batch mean has a customer.  mg1_priority applies it per class, to
      what a class keeps after dropping its share of the warm-up.
    """
    params = _QueueParams(model, params)
    n_batches = 20
    if model == "mg1_priority":
        rho = (params["arrival_rate_high"] * spec_mean(params["service_high"])
               + params["arrival_rate_low"] * spec_mean(params["service_low"]))
    elif model == "gim1_erlang2":
        rho = params["arrival_rate"] * params["service_mean"]
    elif model in ("mg1", "fj", "vsm", "pcm"):
        rho = params["arrival_rate"] * spec_mean(params["service"])
    else:
        raise ValueError("unknown queue model %r" % (model,))
    for key in [k for k in params if k.startswith("arrival_rate")]:
        if not params[key] > 0:
            raise ValueError("%s queue needs %s > 0, got %r"
                             % (model, key, params[key]))
    if rho >= 1:
        raise ValueError("unstable: rho=%.3f" % rho)
    if model != "mg1_priority":  # which checks each class on its own
        _enough(n_customers - warmup, n_customers, warmup, n_batches)
    rng = _rng(seed)
    if model == "mg1":
        lam = params["arrival_rate"]
        svc = sampler(params["service"])
        inter = rng.exponential(1.0 / lam, n_customers)
        serv = svc(rng, n_customers)
        waits = _lindley_waits(inter, serv)[warmup:]
        return {**_wait_response(waits, serv[warmup:], n_batches, level),
                "rho": rho, "n": len(waits)}

    if model == "gim1_erlang2":
        lam = params["arrival_rate"]
        mean_svc = params["service_mean"]
        inter = rng.standard_gamma(2.0, n_customers) / (2.0 * lam)
        serv = rng.exponential(mean_svc, n_customers)
        waits = _lindley_waits(inter, serv)[warmup:]
        wm, wh = _batch_ci(waits, n_batches, level)
        return {"wait": wm, "wait_hw": wh, "rho": rho, "n": len(waits)}

    if model == "fj":
        lam = params["arrival_rate"]
        n_ways = params["ways"]
        svc = sampler(params["service"])
        inter = rng.exponential(1.0 / lam, n_customers)
        resp = np.empty((n_ways, n_customers))
        for b in range(n_ways):
            serv = svc(rng, n_customers)
            np.add(_lindley_waits(inter, serv), serv, out=resp[b])
        fj = resp.max(axis=0)[warmup:]
        rm, rh = _batch_ci(fj, n_batches, level)
        branch = resp[:, warmup:].mean()
        return {"response": rm, "response_hw": rh,
                "branch_response": float(branch), "n": len(fj)}

    if model == "mg1_priority":
        return _sim_priority(params, n_customers, warmup, rng, level, n_batches)
    if model == "vsm":
        return _sim_vsm(params, n_customers, warmup, rng, level, n_batches)
    return _sim_pcm(params, n_customers, warmup, rng, level, n_batches)


# The event loops below index float64 arrays through memoryviews, which
# return Python floats without copying, so each step does the float
# operations of a loop over numpy scalars with no scalar boxing.


def _floats(x):
    return np.ascontiguousarray(x, dtype=float)


def _arrivals(rng, rate, n):
    """n Poisson arrival times, followed by an inf sentinel."""
    t = np.empty(n + 1)
    np.cumsum(rng.exponential(1.0 / rate, n), out=t[:n])
    t[n] = math.inf
    return t


def _sim_priority(params, n_customers, warmup, rng, level, n_batches):
    """Two-class nonpreemptive head-of-line priority, FCFS within class.

    At every service completion (current time t) the arrivals up to t are
    admitted and the high-priority queue is drained first.  A class's queue
    is its customers from its next unserved one up to the last arrival
    <= t, so each queue is a head index into its arrival array.
    """
    lam_h = params["arrival_rate_high"]
    lam_l = params["arrival_rate_low"]
    svc_h = sampler(params["service_high"])
    svc_l = sampler(params["service_low"])
    lam = lam_h + lam_l
    n_h = max(int(n_customers * lam_h / lam), 8)
    n_l = max(n_customers - n_h, 8)
    cut_h = max(int(n_h * warmup / n_customers), 1)
    cut_l = max(int(n_l * warmup / n_customers), 1)
    _enough(n_h - cut_h, n_customers, warmup, n_batches)
    _enough(n_l - cut_l, n_customers, warmup, n_batches)
    t_h = memoryview(_arrivals(rng, lam_h, n_h))
    t_l = memoryview(_arrivals(rng, lam_l, n_l))
    s_h = memoryview(_floats(svc_h(rng, n_h)))
    s_l = memoryview(_floats(svc_l(rng, n_l)))
    waits_h, waits_l = np.empty(n_h), np.empty(n_l)
    w_h, w_l = memoryview(waits_h), memoryview(waits_l)
    ih = il = 0
    a, b = t_h[0], t_l[0]  # arrival times of the two heads
    t = 0.0
    while True:
        if a <= t:
            w_h[ih] = t - a
            t += s_h[ih]
            ih += 1
            a = t_h[ih]
        elif b <= t:
            w_l[il] = t - b
            t += s_l[il]
            il += 1
            b = t_l[il]
        elif b < a:  # idle until the next arrival
            t = b
        elif a < math.inf:
            t = a
        else:
            break
    wm, wh = _batch_ci(waits_h[cut_h:], n_batches, level)
    lm, lh = _batch_ci(waits_l[cut_l:], n_batches, level)
    return {"wait_high": wm, "wait_high_hw": wh,
            "wait_low": lm, "wait_low_hw": lh,
            "n": n_h + n_l}


def _sim_vsm(params, n_customers, warmup, rng, level, n_batches):
    """M/G/1 with rebuild vacations: a type-1 vacation (seek + unit read)
    when the queue drains, then type-2 unit reads until an arrival lands
    during a vacation.  Vacations are never preempted.

    split_seek=True abandons the unit read when the arrival interrupts the
    seek part of a type-1 vacation (needs "vacation1_seek" and "read_part"
    sampler specs).
    """
    from array import array
    lam = params["arrival_rate"]
    svc = sampler(params["service"])
    v1 = sampler(params["vacation1"])
    v2 = sampler(params["vacation2"])
    split_seek = params.get("split_seek", False)
    preempt = params.get("preempt", False)  # abandon the read at an arrival
    if split_seek:
        seek_part = sampler(params["vacation1_seek"])
        read_part = sampler(params["read_part"])
    arr = memoryview(np.cumsum(rng.exponential(1.0 / lam, n_customers)))
    serv = _floats(svc(rng, n_customers))
    s = memoryview(serv)
    waits = np.empty(n_customers)
    w = memoryview(waits)
    units_per_idle = array("q")
    t = 0.0
    for i in range(n_customers):
        a = arr[i]
        if a > t:
            units = 0
            first = True
            while a > t:
                if first and split_seek:
                    s_len = seek_part(rng)
                    if a <= t + s_len:
                        t += s_len  # arrival during the seek: skip the read
                        break
                    t += s_len + read_part(rng)
                else:
                    v_len = v1(rng) if first else v2(rng)
                    if v_len <= 0.0:
                        t = a  # degenerate vacation: plain idle wait
                        break
                    if preempt and a <= t + v_len:
                        t = a  # drop the in-flight read on arrival
                        break
                    t += v_len
                units += 1
                first = False
            units_per_idle.append(units)
        w[i] = t - a
        t += s[i]
    return {**_wait_response(waits[warmup:], serv[warmup:], n_batches, level),
            "mean_units_per_idle": float(np.mean(units_per_idle)),
            "n": n_customers - warmup}


def _sim_pcm(params, n_customers, warmup, rng, level, n_batches):
    """M/G/1 FCFS with one permanent rebuild customer.

    The rebuild customer re-joins the tail of the FCFS queue the moment its
    service completes, so service order is join order: the earlier of the
    next external arrival and the rebuild's last completion goes first.
    """
    from array import array
    lam = params["arrival_rate"]
    svc = sampler(params["service"])
    ru = sampler(params["rebuild_service"])
    arr = memoryview(np.cumsum(rng.exponential(1.0 / lam, n_customers)))
    serv = _floats(svc(rng, n_customers))
    s = memoryview(serv)
    waits = np.empty(n_customers)
    w = memoryview(waits)
    ru_waits = array("d")
    t_free = 0.0
    rejoin = 0.0
    for i in range(n_customers):
        a = arr[i]
        while rejoin <= a:
            start = rejoin if rejoin > t_free else t_free
            ru_waits.append(start - rejoin)
            t_free = start + ru(rng)
            rejoin = t_free
        start = a if a > t_free else t_free
        w[i] = start - a
        t_free = start + s[i]
    return {**_wait_response(waits[warmup:], serv[warmup:], n_batches, level),
            "rebuild_wait": float(np.mean(ru_waits)) if ru_waits else 0.0,
            "rebuild_reads": len(ru_waits),
            "n": n_customers - warmup}
