"""Analytic response-time machinery: M/G/1, priorities, fork-join
approximations, load allocation policies, and small utility laws.

Rates are per second, durations in milliseconds; conversions happen here.
"""

import math
from dataclasses import dataclass

import numpy as np


MS_PER_S = 1000.0


class SaturationError(Exception):
    """Offered load meets or exceeds capacity."""

    def __init__(self, rho):
        super().__init__("utilization %.6g >= 1" % rho)
        self.rho = rho


@dataclass
class WorkloadSpec:
    """Arrival rate and read/write mix of the offered load."""

    arrival_rate: float          # 1/s
    read_fraction: float = 1.0
    request_sectors: int = 8

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be >= 0")
        if not 0 <= self.read_fraction <= 1:
            raise ValueError("read fraction must be in [0,1]")


@dataclass
class WaitStats:
    """Waiting/response time summary of a queue at one operating point."""

    wait: float        # ms
    wait_m2: float     # ms^2
    response: float    # ms
    utilization: float


def offered_load(arrival_rate, mean_service):
    """(lam per ms, rho = lam * mean_service) for an arrival rate in 1/s and
    a mean service time in ms; SaturationError at rho >= 1."""
    lam = arrival_rate / MS_PER_S
    rho = lam * mean_service
    if rho >= 1:
        raise SaturationError(rho)
    return lam, rho


def mg1_wait(arrival_rate, svc):
    """Pollaczek-Khinchine mean and second moment of the M/G/1 wait.

    W = lam*m2 / (2(1-rho));  W2 = 2 W^2 + lam*m3 / (3(1-rho)).
    """
    lam, rho = offered_load(arrival_rate, svc.m1)
    w = lam * svc.m2 / (2.0 * (1.0 - rho))
    w2 = 2.0 * w * w + lam * svc.m3 / (3.0 * (1.0 - rho))
    return WaitStats(w, w2, w + svc.m1, rho)


def mg1_head_of_line_wait(arrival_rate, svc_all, rho_high):
    """Nonpreemptive high-priority wait: the full residual over 1-rho_high."""
    if rho_high >= 1:
        raise SaturationError(rho_high)
    lam = arrival_rate / MS_PER_S
    return lam * svc_all.m2 / (2.0 * (1.0 - rho_high))


def mm1_rate_bounds(mean_service, r_max=None, percentile=None):
    """Largest arrival rate (1/s) meeting a mean or percentile response goal.

    Mean form: lam = 1/x - 1/r_max.  Percentile form with target (p, R_p):
    lam_p = 1/x + ln(1-p)/R_p, clamped at zero.  mean_service, r_max, R_p in
    ms.
    """
    if (r_max is None) == (percentile is None):
        raise ValueError("give exactly one of r_max or percentile")
    if r_max is not None:
        if r_max <= mean_service:
            raise ValueError("response bound %.3g <= service time" % r_max)
        return (1.0 / mean_service - 1.0 / r_max) * MS_PER_S
    p, rp = percentile
    if not 0 < p < 1 or rp <= 0:
        raise ValueError("percentile target needs p in (0,1), R_p > 0")
    lam = 1.0 / mean_service + math.log(1.0 - p) / rp
    return max(lam, 0.0) * MS_PER_S


def allocate_load(devices, total_rate, policy="mean-optimal"):
    """Split a Poisson stream over heterogeneous M/G/1 devices.

    mean-optimal minimizes sum (lam_i/Lambda) R_i (devices may get zero);
    min-max equalizes response times over the fastest devices that are used.
    Rates returned in 1/s, summing to total_rate; roots are found to 1e-9.
    """
    from scipy.optimize import brentq
    lam_total = total_rate / MS_PER_S
    capacity = sum(1.0 / d.m1 for d in devices)
    if lam_total >= capacity:
        raise SaturationError(lam_total / capacity)

    if policy == "min-max":
        # lam_i(R) inverts R = m1 + lam m2 / (2(1 - lam m1)) at response R
        def rate_at(dev, r):
            if r <= dev.m1:
                return 0.0
            return 2.0 * (r - dev.m1) / (dev.m2 + 2.0 * dev.m1 * (r - dev.m1))

        lo = min(d.m1 for d in devices)
        hi = 2.0 * max(d.m1 for d in devices)
    elif policy == "mean-optimal":
        # KKT: marginal cost d/dlam [lam R(lam)] equal across active devices
        def marginal(dev, lam):
            rho = lam * dev.m1
            w = lam * dev.m2 / (2.0 * (1.0 - rho))
            dw = dev.m2 / (2.0 * (1.0 - rho) ** 2)
            return dev.m1 + w + lam * dw

        def rate_at(dev, eta):
            if eta <= marginal(dev, 0.0):
                return 0.0
            hi = (1.0 - 1e-12) / dev.m1
            return brentq(lambda x: marginal(dev, x) - eta, 0.0, hi,
                          xtol=1e-9, rtol=1e-14)

        lo = min(marginal(d, 0.0) for d in devices)
        hi = lo + 1.0
    else:
        raise ValueError("policy must be 'mean-optimal' or 'min-max'")

    def excess(x):
        return sum(rate_at(d, x) for d in devices) - lam_total

    while excess(hi) < 0:
        hi *= 2.0  # rate_at tends to device capacity, so this terminates
    x_star = brentq(excess, lo, hi, xtol=1e-9, rtol=1e-14)
    rates = [rate_at(d, x_star) for d in devices]
    # absorb the root-finder residual so the split sums exactly
    total = sum(rates)
    if total <= 0:
        raise ValueError("no device accepted load")
    return [r * lam_total / total * MS_PER_S for r in rates]


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def forkjoin_response(method, n, rho=None, resp=None, branches=None,
                      tol=1e-8):
    """Mean response time of an n-way fork-join request, by approximation.

    method:
      "flatto-hahn"     exact 2-way M/M/1 mean: (12 - rho)/8 * R(rho);
                        resp = the single-queue mean response R(rho).
      "nelson-tantawi"  scales the 2-way exact mean to 2 <= n <= 32 ways via
                        H_n/H_2 + (1 - H_n/H_2) * (4/11) rho.
      "order-stat-max"  R + sigma_R (H_n - 1); resp = (mean, stdev).
      "evd-max"         R + (sqrt(6)/pi) sigma_R ln(n) / 1.27.
      "erlang-max"      numerical expectation of the max of n Erlang branches;
                        branches = [(k_i, mu_i per ms), ...].
      "asymmetric-max2" closed double sum for two Erlang branches.
    """
    if method == "flatto-hahn":
        if n != 2:
            raise ValueError("flatto-hahn is exact for n=2 only")
        if not 0 <= rho < 1:
            raise SaturationError(rho)
        return (12.0 - rho) / 8.0 * resp
    if method == "nelson-tantawi":
        if not 2 <= n <= 32:
            raise ValueError("nelson-tantawi fits 2..32 ways")
        r2 = forkjoin_response("flatto-hahn", 2, rho=rho, resp=resp)
        h_ratio = harmonic(n) / harmonic(2)
        return (h_ratio + (1.0 - h_ratio) * (4.0 / 11.0) * rho) * r2
    if method == "order-stat-max":
        mean, stdev = resp
        return mean + stdev * (harmonic(n) - 1.0)
    if method == "evd-max":
        mean, stdev = resp
        return mean + math.sqrt(6.0) / math.pi * stdev * math.log(n) / 1.27
    if method == "erlang-max":
        if branches is None or len(branches) != n:
            raise ValueError("erlang-max needs one (k, mu) per branch")
        return _erlang_max(branches, tol)
    if method == "asymmetric-max2":
        if branches is None or len(branches) != 2:
            raise ValueError("asymmetric-max2 needs exactly two branches")
        return _asymmetric_max2(branches)
    raise ValueError("unknown fork-join method %r" % (method,))


def _erlang_cdf_terms(k, mu, t):
    # P(Erlang(k, mu) <= t) = 1 - e^-mut * sum_{j<k} (mu t)^j / j!
    x = mu * t
    s = 0.0
    term = 1.0
    for j in range(k):
        if j > 0:
            term *= x / j
        s += term
    return 1.0 - math.exp(-x) * s


def _erlang_max(branches, tol):
    """E[max] = integral of the survival function of the max.

    Simpson panels are extended until the integrand drops below tol.
    """
    means = [k / mu for k, mu in branches]
    t_hi = max(means) * 2 + 1.0

    def survival(t):
        prod = 1.0
        for k, mu in branches:
            prod *= _erlang_cdf_terms(k, mu, t)
        return 1.0 - prod

    while survival(t_hi) > tol * 1e-2:
        t_hi *= 1.5

    def simpson(f, a, b, npanels):
        xs = np.linspace(a, b, 2 * npanels + 1)
        ys = np.array([f(x) for x in xs])
        h = (b - a) / (2 * npanels)
        return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum())

    est = simpson(survival, 0.0, t_hi, 64)
    npanels = 128
    while True:
        nxt = simpson(survival, 0.0, t_hi, npanels)
        if abs(nxt - est) < tol * max(1.0, abs(nxt)):
            return nxt
        est = nxt
        npanels *= 2
        if npanels > 1 << 16:
            return nxt


def _asymmetric_max2(branches):
    """Two-branch Erlang maximum via the closed double sum:
    E[max] = R1 + R2 - sum_{m<k1} sum_{n<k2} C(m+n, m)
             mu1^m mu2^n / (mu1+mu2)^(m+n+1).
    """
    (k1, mu1), (k2, mu2) = branches
    r1 = k1 / mu1
    r2 = k2 / mu2
    total = 0.0
    for m in range(k1):
        for nn in range(k2):
            total += (math.comb(m + nn, m) * mu1 ** m * mu2 ** nn
                      / (mu1 + mu2) ** (m + nn + 1))
    return r1 + r2 - total


def response_cv(arrival_rate, svc):
    """Squared coefficient of variation of the M/G/1 response time.

    Derived from the exact response moments: with w = W/m1 and
    s_X = m3/m1^3,
      c_R^2 = (c_X^2 + rho s_X / (3(1-rho)) + w^2) / (1 + w)^2.
    Limits: c_X^2 as rho -> 0 and 1 as rho -> 1.
    """
    ws = mg1_wait(arrival_rate, svc)
    rho = ws.utilization
    sx = svc.m3 / svc.m1 ** 3
    w = ws.wait / svc.m1
    num = svc.cv2 + rho * sx / (3.0 * (1.0 - rho)) + w * w
    return num / (1.0 + w) ** 2


def response_moments(arrival_rate, svc):
    """(mean, stdev) of the M/G/1 response; feeds the max approximations."""
    ws = mg1_wait(arrival_rate, svc)
    r2 = ws.wait_m2 + svc.m2 + 2.0 * ws.wait * svc.m1
    var = r2 - ws.response ** 2
    return ws.response, math.sqrt(max(var, 0.0))


def gim1_erlang2_wait(arrival_rate, service_rate):
    """Mean wait of the GI/M/1 queue with Erlang-2 arrivals.

    service_rate is per ms.  sigma solves sigma^2 - (1+4rho) sigma + 4rho^2
    = 0; W = sigma * x / (1 - sigma).
    """
    lam = arrival_rate / MS_PER_S
    rho = lam / service_rate
    if rho >= 1:
        raise SaturationError(rho)
    sigma = 0.5 * (1.0 + 4.0 * rho - math.sqrt(1.0 + 8.0 * rho))
    return sigma / (1.0 - sigma) / service_rate


def satf_service_time(x_fcfs, queue_length):
    """Empirical shortest-access-time-first speedup: x = x_fcfs / q^0.2."""
    if queue_length < 1:
        raise ValueError("queue length must be >= 1")
    return x_fcfs / queue_length ** 0.2


def ioe(kbytes, profile=None, table=None):
    """IO-equivalent cost of a k-KB transfer relative to a positioning IO.

    profile form: 1 + (k/1024 MB / media_rate MB/s) * iops.
    table form: 1 + k/55 ("10k"), 1 + k/48 ("15k"), 1 + k/50 (default).
    """
    if kbytes < 0:
        raise ValueError("size must be >= 0")
    if profile is not None:
        if not profile.media_rate or not profile.iops_rating:
            raise ValueError("profile lacks media_rate or iops_rating")
        return 1.0 + (kbytes / 1024.0) / profile.media_rate * profile.iops_rating
    divisors = {"10k": 55.0, "15k": 48.0, None: 50.0, "default": 50.0}
    try:
        return 1.0 + kbytes / divisors[table]
    except KeyError:
        raise ValueError("unknown IOE table row %r" % (table,))
