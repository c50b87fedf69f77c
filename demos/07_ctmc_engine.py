"""
The Markov-chain engine behind the closed forms
===============================================

Any failure/repair model that fits in a finite chain can be solved here:
mean time to absorption by a linear solve, transients by uniformization,
and the two cross-checked against each other by quadrature.
"""

import numpy as np

from raidlab.ctmc import (build_ctmc, mean_time_to_absorption,
                          mttf_by_quadrature, reliability_curve,
                          transient_series, transient_uniformization)
from raidlab.reliability import (ReliabilityParams, duplex_coverage_chain,
                                 raid5_chain, raid5_closed_form)

# %% Build a chain from transitions; the diagonal fills itself.
params = ReliabilityParams(disks=8, delta=1e-5, mu=1 / 17.8)
chain = raid5_chain(params)
print("states:", chain.states)
print("generator row sums:", np.abs(chain.q.sum(axis=1)).max())

# %% Mean time to data loss, and where the time is spent.
total, per_state, probs = mean_time_to_absorption(chain)
_, closed, _ = raid5_closed_form(params)
print("mean time to absorption %.4e h (closed form %.4e h)"
      % (total, closed))
print("occupancies:", {k: "%.3e" % v for k, v in per_state.items()})

# %% Transients: uniformization gives the full distribution at any time.
# Reliability is the mass still on the transient states, read from one
# curve that carries the distribution forward over the sorted times.
times = (1e3, 1e5, closed)
for t, alive in zip(times, reliability_curve(chain, times)):
    print("t = %9.3g h   still alive %.6f" % (t, alive))

# %% The truncated power series agrees on short horizons and reports its
# own truncation bound; round-off is not in that bound and can exceed it.
series, bound = transient_series(chain, 50.0, 40)
uni = transient_uniformization(chain, 50.0)
print("series vs uniformization at t=50: max diff %.2e "
      "(truncation bound %.2e)"
      % (np.abs(series - uni).max(), bound))

# %% Quadrature of the reliability curve closes the loop.
quad = mttf_by_quadrature(chain, tol=1e-6)
print("MTTF by quadrature %.4e h (solve %.4e h)" % (quad, total))

# %% Imperfect failure coverage: a duplex pair dies immediately when the
# uncovered half of a failure escalates.
for c in (1.0, 0.999, 0.99, 0.9):
    d = duplex_coverage_chain(1e-5, 0.1, c)
    t, _, _ = mean_time_to_absorption(d)
    print("coverage %.3f -> MTTDL %.3e h" % (c, t))
