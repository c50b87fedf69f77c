"""Finite continuous-time Markov chains: generator construction, absorbing
mean-time analysis, and transient distributions by uniformization and
truncated power series.

Chains here are small (at most a few hundred states), so everything is dense
linear algebra with partial pivoting.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Ctmc:
    """States, dense generator (1/hour), absorbing set, initial distribution."""

    states: tuple
    q: np.ndarray
    absorbing: frozenset
    initial: np.ndarray

    def __post_init__(self):
        n = len(self.states)
        if self.q.shape != (n, n):
            raise ValueError("generator shape mismatch")
        off = self.q.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0).any():
            raise ValueError("negative off-diagonal rate")
        if np.abs(self.q.sum(axis=1)).max() > 1e-9 * max(1.0, np.abs(self.q).max()):
            raise ValueError("generator rows must sum to zero")
        for s in self.absorbing:
            i = self.index(s)
            if np.abs(self.q[i]).max() != 0.0:
                raise ValueError("absorbing state %r has outgoing rate" % (s,))
        if abs(self.initial.sum() - 1.0) > 1e-9 or (self.initial < 0).any():
            raise ValueError("initial vector must be a distribution")

    def index(self, state):
        return self.states.index(state)

    @property
    def transient_index(self):
        return [i for i, s in enumerate(self.states) if s not in self.absorbing]

    @property
    def absorbing_index(self):
        return [i for i, s in enumerate(self.states) if s in self.absorbing]


def build_ctmc(transitions, absorbing=(), initial=None, states=None):
    """Assemble a chain from (from, to, rate) triples.

    Duplicate edges are summed; the diagonal is filled as the negative row
    sum.  absorbing lists state labels; initial defaults to all mass on the
    first state encountered.
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
        if r < 0:
            raise ValueError("negative rate on %r -> %r" % (a, b))
        if a == b:
            raise ValueError("self-loop on %r" % (a,))
        q[idx[a], idx[b]] += r
    for s in absorbing:
        if q[idx[s]].any():
            raise ValueError("absorbing state %r has outgoing edges" % (s,))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    if initial is None:
        init = np.zeros(n)
        init[0] = 1.0
    elif isinstance(initial, dict):
        init = np.zeros(n)
        for s, p in initial.items():
            init[idx[s]] = p
    else:
        init = np.asarray(initial, dtype=float)
    return Ctmc(tuple(labels), q, frozenset(absorbing), init)


def mean_time_to_absorption(chain):
    """Expected time to absorption and the per-state occupancies.

    Solves tau Q_T = -pi_T(0) on the transient block; total time is the sum
    of occupancies; absorption probabilities follow from the occupancies
    times the rates into each absorbing state.
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
    if len(ab) == 1:
        probs[chain.states[ab[0]]] = 1.0  # the only place to go
    s = sum(probs.values())
    if abs(s - 1.0) > 1e-6:
        # more than plausible rounding for a stiff chain: a real diagnostic
        raise ValueError("absorption probabilities sum to %.12g" % s)
    per_state = {chain.states[i]: float(t) for i, t in zip(tr, tau)}
    return total, per_state, probs


def _uniformized_step(q, lam, x, tol):
    """Transition matrix e^{Q x/lam} as a Poisson mixture of powers of
    P = I + Q/lam, truncated when the remaining tail mass drops below tol.
    Weights accumulate in log space so large x stays finite."""
    n_states = q.shape[0]
    p = np.eye(n_states) + q / lam
    out = np.zeros_like(p)
    term = np.eye(n_states)
    log_w = -x
    n = 0
    log_x = math.log(x)
    while True:
        w = math.exp(log_w)
        if w > 0.0:
            out += w * term
        if n > x:
            # geometric bound on the remaining Poisson tail
            ratio = x / (n + 1)
            tail = math.exp(log_w + log_x - math.log(n + 1)) / (1.0 - ratio)
            if tail < tol:
                break
        n += 1
        log_w += log_x - math.log(n)
        term = term @ p
        if n > 1_000_000:
            raise RuntimeError("uniformization step failed to converge")
    return out


def transient_uniformization(chain, t, tol=1e-12, rate_factor=1.0):
    """State distribution at time t by uniformization.

    pi(t) = sum_n e^{-Lt} (Lt)^n / n! * pi(0) P^n with P = I + Q/L.  For
    large L t the horizon is halved until the base step needs a modest
    number of terms, the base transition matrix is built by the truncated
    Poisson mixture, and the result is squared back up (still exact matrix
    algebra on the uniformized chain).

    rate_factor > 1 pads the uniformization rate above the minimal
    max|q_ii|; the result must not depend on it.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rate_factor < 1.0:
        raise ValueError("rate_factor must be >= 1")
    if t == 0.0:
        return chain.initial.copy()
    lam = float(np.max(-np.diag(chain.q)))
    if lam == 0.0:
        return chain.initial.copy()
    lam *= 1.0000001 * rate_factor  # strictly dominate the exit rates
    x = lam * t
    doublings = 0
    while x > 256.0 and doublings < 60:
        x /= 2.0
        doublings += 1
    # squaring amplifies the (substochastic) truncation defect at most
    # 2^doublings times; the floor is what double precision can deliver
    step_tol = max(tol / 2.0 ** doublings, 1e-16)
    m = _uniformized_step(chain.q, lam, x, step_tol)
    for _ in range(doublings):
        m = m @ m
    return chain.initial @ m


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
    """R(t) = P(not absorbed by t) at each requested time.

    R(t) is read as the mass left on the transient states, which keeps its
    relative precision however small it gets; one minus the absorbed mass
    would be lost in the round-off of the absorbed mass near 1.
    """
    if not chain.absorbing:
        raise ValueError("no absorbing (failure) states")
    live = chain.transient_index
    return [float(transient_uniformization(chain, t, tol)[live].sum())
            for t in times]


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
