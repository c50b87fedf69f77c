"""Closed-form reliability and MTTDL library: parity stripes with and
without latent sector errors, scrubbing, mirrored and hybrid organizations,
multilevel arrays, placement metrics, and the epsilon shortcut comparison.

Rates are per hour throughout (delta = 1/MTTF, mu = 1/MTTR).
"""

import math
from dataclasses import dataclass
from itertools import takewhile

# The chain functions import ctmc, and with it numpy, where they build or
# solve a chain, so the closed forms load neither.


def falling_factorial(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


@dataclass
class ReliabilityParams:
    """Disk count and the failure/repair rates of the array."""

    disks: int
    delta: float           # 1/hour
    mu: float = 0.0        # 1/hour

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")


# ---------------------------------------------------------------------------
# parity stripe closed forms


def raid_reliability_no_repair(n_total, k, r):
    """Reliability of a k-failure-tolerant stripe of n_total disks with no
    repair: sum_{i<=k} C(n,i) r^{n-i} (1-r)^i."""
    if k >= n_total:
        raise ValueError("tolerance must be below the disk count")
    return _survivable_sum(n_total, r, (math.comb(n_total, i)
                                        for i in range(k + 1)))


def _survivable_sum(n, r, counts):
    """sum_i A_i r^{n-i} (1-r)^i over the counts A_0, A_1, ... of the
    i-failure sets that do not lose data, added in order of i."""
    total = 0.0
    for i, a in enumerate(counts):
        total += a * r ** (n - i) * (1.0 - r) ** i
    return total


def raid5_roots(n_total, delta, mu):
    """Roots (zeta, eta) of the single-parity repairable-stripe chain.

    With N = n_total - 1: s^2 + ((2N+1) delta + mu) s + N(N+1) delta^2 = 0.
    """
    n = n_total - 1
    b = (2 * n + 1) * delta + mu
    disc = delta * delta + mu * mu + 2 * (2 * n + 1) * delta * mu
    root = math.sqrt(disc)
    zeta = 0.5 * (-b + root)
    eta = 0.5 * (-b - root)
    return zeta, eta


def raid5_closed_form(params):
    """Single-parity stripe with repair: R(t) callable, MTTDL, and the
    single-exponential approximation exp(-t/MTTDL).

    R(t) = (zeta e^{eta t} - eta e^{zeta t}) / (zeta - eta);
    MTTDL = ((2N+1) delta + mu) / (N (N+1) delta^2), N = disks - 1.
    """
    n = params.disks - 1
    if n < 1:
        raise ValueError("need at least 2 disks")
    delta, mu = params.delta, params.mu
    zeta, eta = raid5_roots(params.disks, delta, mu)

    def r_of_t(t):
        return (zeta * math.exp(eta * t) - eta * math.exp(zeta * t)) / (zeta - eta)

    mttdl = ((2 * n + 1) * delta + mu) / (n * (n + 1) * delta * delta)

    def r_approx(t):
        return math.exp(-t / mttdl)

    return r_of_t, mttdl, r_approx


def raid5_chain(params):
    """Three-state chain of the repairable single-parity stripe."""
    n = params.disks - 1
    delta, mu = params.delta, params.mu
    edges = [
        ("ok", "degraded", (n + 1) * delta),
        ("degraded", "ok", mu),
        ("degraded", "failed", n * delta),
    ]
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=["failed"], initial={"ok": 1.0})


def chen_mttdl(n, k, mttf, mttr):
    """Fixed-rate-repair approximation for a stripe tolerating k = n - data
    failures: MTTF^{k+1} / (n (n-1) ... (n-k) MTTR^k)."""
    kappa = k
    return mttf ** (kappa + 1) / (falling_factorial(n, kappa + 1) * mttr ** kappa)


def angus_mttdl(n, k_data, mttf, mttr):
    """Per-failure-repair formula; k_data is the data (surviving) count.

    MTTF^{m+1} / (k C(n,k) MTTR^m) * sum_{i<=m} C(n,i) (MTTR/MTTF)^i with
    m = n - k_data.
    """
    m = n - k_data
    lead = mttf ** (m + 1) / (k_data * math.comb(n, k_data) * mttr ** m)
    s = sum(math.comb(n, i) * (mttr / mttf) ** i for i in range(m + 1))
    return lead * s


def birth_death_chain(s, r, lam, rho_repair):
    """Per-chunk failure / constant-rate repair chain: state i = failures,
    absorbing at s - r + 1 concurrent failures."""
    limit = s - r + 1
    edges = []
    for i in range(limit):
        edges.append((i, i + 1, (s - i) * lam))
        if i > 0:
            edges.append((i, i - 1, rho_repair))
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=[limit], initial={0: 1.0})


def birth_death_mttdl(s, r, lam, rho_repair):
    """(numeric MTTDL, leading-order approximation) for the chunk chain.

    Approximation: rho^{s-r} / (lam^{s-r+1} * s(s-1)...(r)).
    """
    from . import ctmc
    total, _, _ = ctmc.mean_time_to_absorption(birth_death_chain(s, r, lam, rho_repair))
    m = s - r
    approx = rho_repair ** m / (lam ** (m + 1) * falling_factorial(s, m + 1))
    return total, approx


def xin_raid51_mttdl(n_total, delta, mu):
    """Mirrored-stripe approximation: mu^3 / (4 N (N-1) delta^4), N pairs."""
    n = n_total
    return mu ** 3 / (4.0 * n * (n - 1) * delta ** 4)


def iliadis_raid51_mttdl(n_total, delta, mu):
    """Shortest-path result for a stripe of D mirrored pairs (N = 2D devices):
    P_DL = 3(D-1) delta^3 / (2 mu^3), MTTDL = 1/(N delta P_DL)."""
    if n_total % 2:
        raise ValueError("device count must be even")
    d = n_total // 2
    p_dl = 3.0 * (d - 1) * delta ** 3 / (2.0 * mu ** 3)
    return 1.0 / (n_total * delta * p_dl)


def raid15_mttdl(n_total_per_side, delta, mu):
    """Mirrored pair of single-parity stripes: 1.5 mu / (N(N+1) delta^2)
    with N = disks per side minus one."""
    n = n_total_per_side - 1
    return 1.5 * mu / (n * (n + 1) * delta * delta)


def cp_dp_mttdl_eafdl(params, placement):
    """Closed forms for clustered / declustered replica placement.

    Returns (MTTDL, EAFDL).  See PlacementParams for the parameter roles.
    """
    n, c, r, b, lam = params.n, params.c, params.r, params.b, params.lam
    if r < 2:
        raise ValueError("replication factor must be >= 2")
    if placement == "cp":
        mttdl = (b / (lam * c)) ** (r - 1) / (n * lam)
        eafdl = (lam * c / b) ** (r - 1) * lam
        return mttdl, eafdl
    if placement == "dp":
        prod_m = 1.0
        for e in range(1, r - 1):
            prod_m *= ((n - e) / (r - e)) ** (r - e - 1)
        mttdl = ((b / (2 * lam * c)) ** (r - 1)
                 * math.factorial(r - 1) / (n * lam) * prod_m)
        prod_e = 1.0
        for e in range(1, r):
            prod_e *= ((r - e) / (n - e)) ** (r - e)
        eafdl = ((2 * lam * c / b) ** (r - 1)
                 * lam / math.factorial(r - 1) * prod_e)
        return mttdl, eafdl
    raise ValueError("placement must be 'cp' or 'dp'")


@dataclass
class PlacementParams:
    """Replica placement system: n devices, c bytes each, replication r,
    spread k, rebuild bandwidth b (bytes/h), device failure rate lam."""

    n: int
    c: float
    r: int
    b: float
    lam: float
    k: int = None

    def __post_init__(self):
        if self.k is None:
            self.k = self.n - 1

    @property
    def user_data(self):
        return self.n * self.c / self.r

    @property
    def mu(self):
        return self.b / self.c


def eafdl(params, placement):
    """(MTTDL, EAFDL, E[Q]) with the consistency E[Q] = EAFDL * E[T] * U,
    E[T] = 1/(n lam)."""
    mttdl, rate = cp_dp_mttdl_eafdl(params, placement)
    et = 1.0 / (params.n * params.lam)
    eq = rate * et * params.user_data
    return mttdl, rate, eq


# ---------------------------------------------------------------------------
# latent sector errors


@dataclass
class LseParams:
    """Sector error description for the segment-error probabilities.

    p_bit: bit error probability; sector_bits: bits per sector; length:
    sectors per segment; interleaves m; burst_mean and burst_tail (G_j,
    starting at G_1 = 1) parameterize the correlated model; capacity_bytes
    and sector_bytes size the per-disk segment count.
    """

    p_bit: float = None
    sector_bits: int = 4096
    length: int = 128
    interleaves: int = 8
    burst_mean: float = None
    burst_tail: tuple = None
    capacity_bytes: float = None
    sector_bytes: int = 512
    p_sector: float = None

    def __post_init__(self):
        if self.p_sector is None:
            if self.p_bit is None:
                raise ValueError("give p_bit or p_sector")
            self.p_sector = 1.0 - (1.0 - self.p_bit) ** self.sector_bits
        if not 0 <= self.p_sector <= 1:
            raise ValueError("sector error probability out of range")
        if self.interleaves < 0 or self.length <= self.interleaves:
            raise ValueError("need length > interleaves >= 0")

    @property
    def segments_per_disk(self):
        if self.capacity_bytes is None:
            raise ValueError("capacity_bytes not set")
        return self.capacity_bytes / (self.length * self.sector_bytes)


def _binom_tail(n, p, k_min):
    """P(Bin(n,p) >= k_min), numerically safe for tiny p."""
    # sum the first few terms of the complement when k_min small, else direct
    total = 0.0
    for j in range(k_min, n + 1):
        term = math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
        total += term
        if term < total * 1e-18:
            break
    return total


def _at_least_one(m, p):
    """P(at least one of m independent events of probability p each),
    1 - (1 - p)^m without cancellation; 1 at p >= 1, where log1p(-p) is
    undefined."""
    return -math.expm1(m * math.log1p(-p)) if p < 1 else 1.0


def pseg(scheme, model, lse):
    """Probability that a segment is unrecoverable.

    Independent model: exact binomial sums.  Correlated model: leading-order
    forms in the burst-length tail G_j with mean burst length B.
    """
    ell = lse.length
    m = lse.interleaves
    ps = lse.p_sector
    if scheme in ("ipc", "rs") and m < 1:
        raise ValueError("%s needs at least one check sector" % scheme)
    if model == "independent":
        if scheme == "none":
            return _at_least_one(ell, ps)
        if scheme == "spc":
            return _binom_tail(ell, ps, 2)
        if scheme == "ipc":
            return _at_least_one(m, _binom_tail(ell // m, ps, 2))
        if scheme == "rs":
            return _binom_tail(ell, ps, m + 1)
        raise ValueError("unknown scheme %r" % (scheme,))
    if model == "correlated":
        if lse.burst_mean is None or lse.burst_tail is None:
            raise ValueError("correlated model needs burst_mean and burst_tail")
        b = lse.burst_mean
        g = (1.0,) + tuple(lse.burst_tail[1:]) if lse.burst_tail[0] != 1.0 \
            else tuple(lse.burst_tail)

        def gt(j):
            return g[j - 1] if j - 1 < len(g) else 0.0

        if scheme == "none":
            return (1.0 + (ell - 1.0) / b) * ps
        if scheme == "spc":
            return (1.0 + ((ell - 2.0) * gt(2) - 1.0) / b) * ps
        if scheme in ("ipc", "rs"):
            ssum = sum(gt(j) for j in range(1, m + 1))
            return (1.0 + ((ell - m - 1.0) * gt(m + 1) - ssum) / b) * ps
        raise ValueError("unknown scheme %r" % (scheme,))
    raise ValueError("model must be 'independent' or 'correlated'")


def p_uf(lse, n_disks, k_failed, p_seg):
    """Unrecoverable-failure probability during rebuild with k disks down:
    1 - (1 - P_seg)^((N-k) * segments per disk)."""
    if not 0 <= p_seg <= 1:
        raise ValueError("P_seg out of [0,1]")
    return _at_least_one((n_disks - k_failed) * lse.segments_per_disk, p_seg)


def mttdl_with_lse(level, params, lse, scheme, model="independent"):
    """MTTDL of a single- or double-parity stripe with latent sector errors.

    level "raid5": closed form ((2N-1) delta + mu) / (N delta ((N-1) delta +
    mu P_uf)).  level "raid6": numeric solve of the two-repair-rate chain.
    """
    n = params.disks
    delta, mu = params.delta, params.mu
    p_seg = pseg(scheme, model, lse)
    if level == "raid5":
        puf1 = p_uf(lse, n, 1, p_seg)
        return (((2 * n - 1) * delta + mu)
                / (n * delta * ((n - 1) * delta + mu * puf1)))
    if level == "raid6":
        chain = raid6_lse_chain(params, lse, p_seg)
        from . import ctmc
        total, _, _ = ctmc.mean_time_to_absorption(chain)
        return total
    raise ValueError("level must be 'raid5' or 'raid6'")


def raid5_lse_chain(params, lse, p_seg):
    """Two-transient-state chain with disk-failure and unrecoverable-error
    absorption."""
    n = params.disks
    delta, mu = params.delta, params.mu
    puf1 = p_uf(lse, n, 1, p_seg)
    edges = [
        ("ok", "degraded", n * delta),
        ("degraded", "ok", mu * (1.0 - puf1)),
        ("degraded", "uf", mu * puf1),
        ("degraded", "df", (n - 1) * delta),
    ]
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=["uf", "df"], initial={"ok": 1.0})


def raid6_lse_chain(params, lse, p_seg):
    """Double-parity chain: rebuild failure needs two coinciding segment
    errors in degraded mode (rate mu P_recf) or one in critical mode (rate
    mu P_uf); both failed disks rebuild concurrently back to normal."""
    n = params.disks
    delta = params.delta
    mu = params.mu
    p_recf = math.comb(n - 1, 2) * p_seg * p_seg
    puf_r = _at_least_one(lse.segments_per_disk, p_recf)
    puf2 = p_uf(lse, n, 2, p_seg)
    edges = [
        ("ok", "deg1", n * delta),
        ("deg1", "ok", mu * (1.0 - puf_r)),
        ("deg1", "uf", mu * puf_r),
        ("deg1", "deg2", (n - 1) * delta),
        ("deg2", "ok", mu * (1.0 - puf2)),
        ("deg2", "uf", mu * puf2),
        ("deg2", "df", (n - 2) * delta),
    ]
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=["uf", "df"], initial={"ok": 1.0})


# ---------------------------------------------------------------------------
# scrubbing


def scrub_model(p_w, r_w, h, t_s, mode="deterministic", chunk_kb=None,
                scrub_sectors=None, sectors_per_disk=None, t_pos_s=None,
                sigma=None, p=1, ioe_table=None, sector_bytes=512):
    """Scrubbing closed forms.

    P_s: probability a read hits a sector left in error, for deterministic
    or exponential scrub intervals of mean t_s seconds under write-error
    probability p_w, write fraction r_w and access rate h (1/s).

    With the IO-equivalent inputs (chunk_kb for small writes, scrub_sectors
    per scrub IO, sectors_per_disk, positioning time t_pos_s, current rate
    sigma and p = 1 for single / 2 for double parity) also reports the
    maximum sustainable operation rate and the smallest admissible scrub
    period T_S_star.
    """
    if h <= 0 or t_s <= 0:
        raise ValueError("h and t_s must be positive")
    p_e = r_w * p_w
    x = h * t_s
    if mode == "deterministic":
        p_s = (1.0 - (1.0 - math.exp(-x)) / x) * p_e
    elif mode == "exponential":
        p_s = x / (1.0 + x) * p_e
    else:
        raise ValueError("mode must be 'deterministic' or 'exponential'")
    out = {"P_s": p_s, "P_e": p_e}
    if chunk_kb is not None and t_pos_s is not None:
        from .queueing import ioe as ioe_cost
        cost_k = ioe_cost(chunk_kb, table=ioe_table)
        sig_hat = 1.0 / (cost_k * t_pos_s)
        sigma_max = sig_hat / (1.0 + (1.0 + 2.0 * p) * r_w)
        out["sigma_hat_max"] = sig_hat
        out["sigma_max"] = sigma_max
        if (scrub_sectors is not None and sectors_per_disk is not None
                and sigma is not None):
            if sigma >= sigma_max:
                raise ValueError("operation rate exceeds the scrubbed maximum")
            scrub_kb = scrub_sectors * sector_bytes / 1024.0
            cost_gs = ioe_cost(scrub_kb, table=ioe_table)
            t_star = (sectors_per_disk * cost_gs
                      / ((1.0 + (1.0 + 2.0 * p) * r_w) * scrub_sectors
                         * cost_k * (sigma_max - sigma)))
            out["T_S_star"] = t_star
    return out


# ---------------------------------------------------------------------------
# mirrored organizations and the shortcut comparison


def mirrored_coefficients(org, n, i, clusters=2):
    """A(N,i): number of i-failure sets that do NOT lose data.

    bm: C(M,i) 2^i; id: C(c,i) (N/c)^i; grd: 2 C(M,i) for i >= 1;
    cd: C(N-i-1, i-1) + C(N-i, i).
    """
    if i == 0:
        return 1
    m = n // 2
    if org == "bm":
        if n % 2:
            raise ValueError("bm needs even N")
        return math.comb(m, i) * 2 ** i if i <= m else 0
    if org == "id":
        c = clusters
        if n % c:
            raise ValueError("id needs c | N")
        return math.comb(c, i) * (n // c) ** i if i <= c else 0
    if org == "grd":
        if n % 2:
            raise ValueError("grd needs even N")
        return 2 * math.comb(m, i) if i <= m else 0
    if org == "cd":
        if i > m:
            return 0
        return math.comb(n - i - 1, i - 1) + math.comb(n - i, i)
    raise ValueError("unknown organization %r" % (org,))


def mirrored_reliability(org, n, r, clusters=2):
    """Reliability via the survivable-set coefficients, up to the first
    failure count at which every set loses data (A_0 = 1)."""
    counts = (mirrored_coefficients(org, n, i, clusters) for i in range(n + 1))
    return _survivable_sum(n, r, takewhile(bool, counts))


SHORTCUT_TERMS = {
    # leading coefficient of 1 - R as a function of N; power of epsilon
    "raid5": (lambda n: math.comb(n, 2), 2),
    "bm": (lambda n: n / 2.0, 2),
    "cd": (lambda n: float(n), 2),
    "grd": (lambda n: n * (n - 1) / 4.0, 2),
    # enumeration-exact variant: C(N,2) - 2 C(N/2,2) = N^2/4 fatal pairs
    "grd_exact": (lambda n: n * n / 4.0, 2),
    # c = 2 clusters
    "id": (lambda n: n * (n / 2 - 1) / 2.0, 2),
    "raid6": (lambda n: math.comb(n, 3), 3),
    "lsi": (lambda n: math.comb(n, 3) - n / 2.0, 3),
    "raid7": (lambda n: math.comb(n, 4), 4),
    "sspiral": (lambda n: math.comb(n, 4) / 5.0, 4),
    "raid1/5": (lambda n: 0.25 * n * n * (n - 1), 4),
    "raid5/1": (lambda n: 0.5 * n * (n - 1), 4),
}


def shortcut_compare(orgs, n, eps):
    """Rank organizations by the leading term of 1 - R at unreliability eps.

    Returns [(org, coefficient, power, term value)] sorted most reliable
    first (smallest leading term).  Raises ValueError when N is too small
    for an organization, so that its leading coefficient is negative.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    rows = []
    for org in orgs:
        try:
            coeff_fn, power = SHORTCUT_TERMS[org]
        except KeyError:
            raise ValueError("no shortcut term for %r" % (org,))
        coeff = coeff_fn(n)
        if coeff < 0:
            raise ValueError("%s has a negative leading coefficient %g at "
                             "N = %d" % (org, coeff, n))
        rows.append((org, coeff, power, coeff * eps ** power))
    rows.sort(key=lambda r: r[3])
    return rows


def epsilon_from_horizon(mttf_hours, horizon_hours):
    """Single-disk unreliability over a mission horizon: eps ~ t/MTTF."""
    return horizon_hours / mttf_hours


# ---------------------------------------------------------------------------
# triple modular redundancy


def tmr(delta, variant="tmr"):
    """Voter-based triples: R(t), MTTF, mission time, and the printed
    early-expansion coefficient of 1 - R ~ coeff (delta t)^2.

    tmr: R = 3e^{-2dt} - 2e^{-3dt}, MTTF = 5/(6d), mission time ln2/d.
    tmr_simplex: R = 1.5e^{-dt} - 0.5e^{-3dt}, MTTF = 4/(3d) = 1/(3d) + 1/d.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if variant == "tmr":
        def r(t):
            return 3 * math.exp(-2 * delta * t) - 2 * math.exp(-3 * delta * t)
        return {
            "reliability": r,
            "mttf": 5.0 / (6.0 * delta),
            "mission_time": math.log(2.0) / delta,
            "early_coefficient": 3.0,
        }
    if variant == "tmr_simplex":
        def r(t):
            return 1.5 * math.exp(-delta * t) - 0.5 * math.exp(-3 * delta * t)
        return {
            "reliability": r,
            "mttf": 4.0 / (3.0 * delta),
            "mission_time": None,
            "early_coefficient": 4.0,
        }
    raise ValueError("variant must be 'tmr' or 'tmr_simplex'")


def tmr_chain(delta, variant="tmr"):
    """Absorbing chains matching the closed forms, for cross-checking."""
    if variant == "tmr":
        edges = [(3, 2, 3 * delta), (2, "failed", 2 * delta)]
    elif variant == "tmr_simplex":
        edges = [(3, 1, 3 * delta), (1, "failed", delta)]
    else:
        raise ValueError("variant must be 'tmr' or 'tmr_simplex'")
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=["failed"], initial={3: 1.0})


def duplex_coverage_chain(delta, mu, coverage):
    """Duplex pair with imperfect failure coverage."""
    edges = [
        (0, 1, 2 * delta * coverage),
        (0, "failed", 2 * delta * (1.0 - coverage)),
        (1, 0, mu),
        (1, "failed", delta),
    ]
    from . import ctmc
    return ctmc.build_ctmc(edges, absorbing=["failed"], initial={0: 1.0})


# ---------------------------------------------------------------------------
# uneven parity aging


def diffraid_aging(parity_shares):
    """Pairwise aging-rate ratios for a parity split across n devices.

    a[i][j] = (p_i (n-1) + (100 - p_i)) / (p_j (n-1) + (100 - p_j)).
    """
    weights = _aging_rates(parity_shares)
    size = len(weights)
    return [[weights[i] / weights[j] for j in range(size)] for i in range(size)]


def diffraid_replacement_ages(parity_shares, erasure_limit=10_000.0):
    """Iterated replacement simulation of an unevenly-aged array.

    Shares attach to age rank (oldest first).  The array runs until the
    oldest device reaches the erasure limit; it is replaced by a fresh
    device and parity reshuffles by rank.  Returns the converged ages of the
    surviving devices at replacement time, oldest first.
    """
    rates = _aging_rates(parity_shares)
    n = len(rates)
    ages = [0.0] * n
    prev = None
    for _ in range(400):
        dt = (erasure_limit - ages[0]) / rates[0]
        ages = [a + dt * r for a, r in zip(ages, rates)]
        survivors = ages[1:]
        ages = sorted(survivors + [0.0], reverse=True)
        if prev is not None and all(
                abs(a - b) <= 1e-12 * max(1.0, abs(b))
                for a, b in zip(survivors, prev)):
            return survivors
        prev = survivors
    return prev


def _aging_rates(parity_shares):
    """Aging rate of each device, p (n-1) + (100 - p) for its parity share p
    in percent, n being the share count; the shares must sum to 100."""
    shares = list(parity_shares)
    n = len(shares)
    if abs(sum(shares) - 100.0) > 1e-9:
        raise ValueError("parity shares must sum to 100")
    return [p * (n - 1) + (100.0 - p) for p in shares]
