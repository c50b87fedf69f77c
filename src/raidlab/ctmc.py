"""Finite continuous-time Markov chains: generator construction, absorbing
mean-time analysis, and transient distributions by uniformization and
truncated power series.

Generators are stored dense, and the absorbing solve is dense linear algebra
with partial pivoting.  Transients advance a row vector pi by e^{Q dt} through
uniformization with x = L dt expected Poisson terms, on the path that a cost
rule (`_squaring_cheaper`) prefers, not one chosen by chain size: vector steps
cost about x + c sqrt(x) matrix-vector products of n^2 each; squaring costs
its base terms plus its doublings, n^3 each; a fixed per-term cost of the
numpy calls is added to both.  Reliability curves run on the transient block
and carry pi forward over the sorted times.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Ctmc:
    """States, dense generator (1/hour), absorbing set, initial distribution,
    and each state's row; `build_ctmc` builds and checks them."""

    states: tuple
    q: np.ndarray
    absorbing: frozenset
    initial: np.ndarray
    _position: dict = field(repr=False, compare=False)
    transient_index: list = field(init=False, repr=False, compare=False)
    absorbing_index: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.transient_index = [i for i, s in enumerate(self.states)
                                if s not in self.absorbing]
        self.absorbing_index = [i for i, s in enumerate(self.states)
                                if s in self.absorbing]

    def index(self, state):
        try:
            return self._position[state]
        except (KeyError, TypeError):  # unhashable: not a state either
            raise ValueError("%r is not a state of the chain" % (state,)) \
                from None


def build_ctmc(transitions, absorbing=(), initial=None, states=None):
    """Assemble a chain from (from, to, rate) triples.

    Duplicate edges are summed; the diagonal is filled as the negative row
    sum.  absorbing lists state labels; initial defaults to all mass on the
    first state encountered.  This is where a chain is checked: each rate
    must be finite and >= 0, no edge may be a self-loop or leave an
    absorbing state, and initial must be a distribution over the states.
    """
    labels = []
    seen = set()

    def note(s):
        if s not in seen:
            seen.add(s)
            labels.append(s)

    if states:
        for s in states:
            note(s)
    for a, b, r in transitions:
        note(a)
        note(b)
    for s in absorbing:
        note(s)
    n = len(labels)
    idx = {s: i for i, s in enumerate(labels)}
    q = np.zeros((n, n))
    for a, b, r in transitions:
        if not 0 <= r < math.inf:
            raise ValueError("rate %r on %r -> %r is not finite and >= 0"
                             % (r, a, b))
        if a == b:
            raise ValueError("self-loop on %r" % (a,))
        q[idx[a], idx[b]] += r
    for s in absorbing:
        if q[idx[s]].any():
            raise ValueError("absorbing state %r has outgoing edges" % (s,))
    np.fill_diagonal(q, -q.sum(axis=1))
    if initial is None:
        init = np.zeros(n)
        init[0] = 1.0
    elif isinstance(initial, dict):
        init = np.zeros(n)
        for s, p in initial.items():
            if s not in idx:
                raise ValueError("initial names %r, not a state" % (s,))
            init[idx[s]] = p
    else:
        init = np.asarray(initial, dtype=float)
    if init.shape != (n,) or not (abs(init.sum() - 1.0) <= 1e-9
                                  and (init >= 0).all()):
        raise ValueError("initial vector must be a distribution")
    return Ctmc(tuple(labels), q, frozenset(absorbing), init, idx)


def mean_time_to_absorption(chain):
    """Expected time to absorption and the per-state occupancies.

    Solves tau Q_T = -pi_T(0) on the transient block; total time is the sum
    of occupancies; absorption probabilities follow from the occupancies
    times the rates into each absorbing state.  They are computed for every
    chain, and a solve whose absorbed mass is off 1 by more than 1e-6 raises.
    """
    tr = chain.transient_index
    ab = chain.absorbing_index
    if not ab:
        raise ValueError("chain has no absorbing states")
    qt = chain.q[np.ix_(tr, tr)]
    p0 = chain.initial[tr]
    if p0.sum() == 0.0:
        raise ValueError("initial distribution is entirely absorbed")
    try:
        tau = np.linalg.solve(qt.T, -p0)
        # one step of iterative refinement; stiff chains mix rates spanning
        # many orders of magnitude
        resid = -p0 - qt.T @ tau
        tau += np.linalg.solve(qt.T, resid)
    except np.linalg.LinAlgError:
        raise ValueError("absorbing states unreachable: singular transient block")
    if not np.isfinite(tau).all() or (tau < -1e-12).any():
        raise ValueError("absorbing states unreachable from the initial state")
    total = float(tau.sum())
    probs = {}
    for j in ab:
        rate_in = chain.q[np.ix_(tr, [j])].ravel()
        probs[chain.states[j]] = float(tau @ rate_in) + float(chain.initial[j])
    s = sum(probs.values())
    if abs(s - 1.0) > 1e-6:
        # more than plausible rounding for a stiff chain: a real diagnostic
        raise ValueError("absorption probabilities sum to %.12g" % s)
    per_state = {chain.states[i]: float(t) for i, t in zip(tr, tau)}
    return total, per_state, probs


# the squaring path halves the horizon until the Poisson mean of its base
# step is at most this
_BASE_MEAN = 256.0
# cost-rule constants, in vector multiply-adds; see _squaring_cheaper
_CALL_COST = 2e4
_GEMM_GAIN = 5.0


def _poisson_mixture(x, tol, first, step):
    """sum_n w_n first P^n for Poisson(x) weights w_n, where step(a) = a P,
    truncated past the mean once a geometric bound on the remaining tail
    mass drops below tol.  Each term is nonnegative, so truncation drops at
    most tol of the mass of first.  Weights accumulate in log space so large
    x stays finite."""
    out = np.zeros_like(first)
    term = first
    log_w = -x
    log_x = math.log(x)
    n = 0
    while True:
        w = math.exp(log_w)
        if w > 0.0:
            out += w * term
        if n > x:
            ratio = x / (n + 1)
            tail = math.exp(log_w + log_x - math.log(n + 1)) / (1.0 - ratio)
            if tail < tol:
                return out
        n += 1
        log_w += log_x - math.log(n)
        if n > 1_000_000:
            raise RuntimeError("uniformization step failed to converge")
        term = step(term)


def _base_step(x, tol):
    """Halvings d of the horizon, the base step's Poisson mean and its
    truncation tolerance on the squaring path."""
    d = 0
    while x > _BASE_MEAN and d < 60:
        x /= 2.0
        d += 1
    # squaring amplifies the (substochastic) truncation defect at most 2^d
    # times; the floor is what double precision can deliver
    return d, x, max(tol / 2.0 ** d, 1e-16)


def _by_vectors(qs, pi, x, tol):
    """pi e^{Q x/lam} for qs = Q/lam: one matrix-vector product per Poisson
    term."""
    return _poisson_mixture(x, tol, pi, lambda v: v + v @ qs)


def _by_squaring(qs, pi, x, tol):
    """pi e^{Q x/lam} for qs = Q/lam: the horizon is halved until the base
    step needs a modest number of terms, the base transition matrix is built
    by the truncated Poisson mixture of powers of P = I + qs, and the result
    is squared back up (still exact matrix algebra on the uniformized
    chain)."""
    d, base, step_tol = _base_step(x, tol)
    p = np.eye(qs.shape[0]) + qs
    m = _poisson_mixture(base, step_tol, np.eye(qs.shape[0]), lambda a: a @ p)
    for _ in range(d):
        m = m @ m
    return pi @ m


def _squaring_cheaper(n, x, tol):
    """True when squaring an n-state step is estimated to beat vector steps
    over x = L dt Poisson terms, at truncation tol.

    Both costs count matrix-vector multiply-adds:

        vector steps:  terms(x) * (n^2 + _CALL_COST)
        squaring:      (terms(x / 2^d) + d) * (n^3 / _GEMM_GAIN + _CALL_COST)

    where d halvings bring the base step's Poisson mean to at most
    _BASE_MEAN, and terms(y) = y + c (sqrt(y) + 1), with c = sqrt(2 ln(1/tol))
    standard deviations of the Poisson count, estimates where the tail bound
    stops.  _CALL_COST is the fixed cost of the few numpy calls each term
    makes (~4 us, against ~0.2 ns per matrix-vector multiply-add, on a 2-core
    x86 host with OpenBLAS); _GEMM_GAIN is how many times more multiply-adds
    per second a matrix product runs than a matrix-vector product there.
    """
    d, base, step_tol = _base_step(x, tol)

    def terms(y, eps):
        return y + math.sqrt(2.0 * math.log(1.0 / eps)) * (math.sqrt(y) + 1.0)

    vector = terms(x, tol) * (n * n + _CALL_COST)
    squaring = (terms(base, step_tol) + d) * (n ** 3 / _GEMM_GAIN + _CALL_COST)
    return squaring < vector


def _advance(qs, pi, x, tol):
    """pi e^{Q x/lam} for qs = Q/lam, by whichever path the cost rule
    prefers; the truncation drops at most tol of the mass of pi."""
    if x == 0.0:
        return pi.copy()
    if not math.isfinite(x):
        raise ValueError("uniformization needs finite rates and times")
    if _squaring_cheaper(qs.shape[0], x, tol):
        return _by_squaring(qs, pi, x, tol)
    return _by_vectors(qs, pi, x, tol)


def _uniformization_rate(chain, rate_factor=1.0):
    # strictly dominate the exit rates, so that P = I + Q/lam is nonnegative
    return float(np.max(-np.diag(chain.q))) * 1.0000001 * rate_factor


def transient_uniformization(chain, t, tol=1e-12, rate_factor=1.0):
    """State distribution at time t by uniformization.

    pi(t) = sum_n e^{-Lt} (Lt)^n / n! * pi(0) P^n with P = I + Q/L, summed
    by vector steps or, when L t is large, by squaring a base transition
    matrix, whichever the cost rule of this module prefers.  The output
    holds every state, absorbing ones included.

    rate_factor > 1 pads the uniformization rate above the minimal
    max|q_ii|; the result must not depend on it.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rate_factor < 1.0:
        raise ValueError("rate_factor must be >= 1")
    lam = _uniformization_rate(chain, rate_factor)
    if t == 0.0 or lam == 0.0:
        return chain.initial.copy()
    return _advance(chain.q / lam, chain.initial, lam * t, tol)


def transient_series(chain, t, n_terms):
    """Truncated Taylor series for pi(t) with its truncation bound.

    pi(t) ~ sum_{n<=N} pi(0) (Qt)^n / n! via the F_n = F_{n-1} Q t/n
    recursion.  The reported bound is the tail of the exponential series in
    the infinity norm of Qt: it bounds the truncation error only, not the
    round-off of summing terms of alternating sign, which can be orders of
    magnitude larger.  For large |Q| t prefer uniformization.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    qt_norm = float(np.abs(chain.q).sum(axis=1).max()) * t
    f = chain.initial.copy()
    out = f.copy()
    for n in range(1, n_terms + 1):
        f = f @ chain.q * (t / n)
        out += f
        if not np.isfinite(out).all():
            raise OverflowError("series overflow; use uniformization")
    # remainder of sum x^n/n! beyond N
    tail = 0.0
    term = qt_norm ** (n_terms + 1) / math.factorial(min(n_terms + 1, 170))
    if n_terms + 1 > 170:
        term = math.inf
    k = n_terms + 1
    while term > 1e-300 and tail < 1e12:
        tail += term
        k += 1
        term *= qt_norm / k
        if k > n_terms + 10_000:
            break
    return out, tail


def reliability_curve(chain, times, tol=1e-12):
    """R(t) = P(not absorbed by t) at each requested time, in the caller's
    order.

    R(t) is read as the mass left on the transient states, which keeps its
    relative precision however small it gets; one minus the absorbed mass
    would be lost in the round-off of the absorbed mass near 1.  The
    transient part of the distribution is carried forward over the sorted
    distinct times, pi_T(t') = pi_T(t) e^{Q_T (t' - t)} on the transient
    block, and tol is split evenly across those steps so that the total
    truncation stays within it.
    """
    if not chain.absorbing:
        raise ValueError("no absorbing (failure) states")
    if tol <= 0:
        raise ValueError("tol must be positive")
    times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times):
        raise ValueError("times must be finite and >= 0")
    sorted_times = sorted(set(times))
    steps = sum(1 for t in sorted_times if t > 0.0)
    live = chain.transient_index
    lam = _uniformization_rate(chain)
    # lam = 0: nothing moves, and every step below has x = 0
    qs = chain.q[np.ix_(live, live)] / (lam or 1.0)
    pi = chain.initial[live]
    now = 0.0
    at = {}
    for t in sorted_times:
        if t > now:
            pi = _advance(qs, pi, lam * (t - now), tol / steps)
            now = t
        at[t] = float(pi.sum())
    return [at[t] for t in times]


def mttf_by_quadrature(chain, tol=1e-8):
    """Integral of R(t) over [0, inf), for cross-checking the linear solve."""
    from scipy import integrate
    total, _, _ = mean_time_to_absorption(chain)

    def reliability(t):
        return reliability_curve(chain, [t], min(tol * 1e-3, 1e-10))[0]

    # R(t) decays (asymptotically) exponentially: cut where it is negligible
    cutoff = 4.0 * total
    while reliability(cutoff) > tol * 1e-3 and cutoff < 1e9 * total:
        cutoff *= 2.0
    val, _ = integrate.quad(reliability, 0.0, cutoff, limit=300,
                            epsabs=tol * total, epsrel=tol,
                            points=[total, 2.0 * total])
    return val
