"""
Response-time laws for disks and arrays
=======================================

The M/G/1 backbone, admission bounds, load allocation over mixed drives,
and the fork-join approximations used for degraded-mode reads.
"""

import numpy as np

from raidlab.disk import MomentSet, cheetah_15k5, service_time_moments
from raidlab.queueing import (allocate_load, forkjoin_response,
                              gim1_erlang2_wait, harmonic, mg1_wait,
                              mm1_rate_bounds, response_cv, response_moments,
                              satf_service_time)

# %% Waits explode as utilization approaches one.
svc = service_time_moments(cheetah_15k5())
print("service mean %.2f ms" % svc.m1)
for rate in (40, 80, 120, 160):
    w = mg1_wait(rate, svc)
    print("  %3d IO/s  rho %.2f  wait %6.2f ms  response %6.2f ms"
          % (rate, w.utilization, w.wait, w.response))

# %% How hard can you drive a disk and still meet a response-time goal?
print("rate for mean response <= 20 ms on a 10 ms disk: %.0f/s"
      % mm1_rate_bounds(10.0, r_max=20.0))
print("rate for 95%% of responses <= 50 ms:             %.0f/s"
      % mm1_rate_bounds(10.0, percentile=(0.95, 50.0)))

# %% Splitting a stream over unequal drives: minimizing the mean response
# starves the slow drive at low load; equalizing response times loads the
# fast drive harder.
devices = [MomentSet.exponential(5.0), MomentSet.exponential(10.0),
           MomentSet.exponential(20.0)]
for policy in ("mean-optimal", "min-max"):
    rates = allocate_load(devices, 200.0, policy)
    resp = [mg1_wait(r, d).response for r, d in zip(rates, devices)]
    print(policy, " rates", ["%.1f" % r for r in rates],
          " responses", ["%.1f" % r for r in resp])

# %% Degraded-mode reads fork across the survivors and wait for the last
# branch.  The only exact mean is the 2-way one; the rest are bounded by the
# harmonic maximum.
rho = 0.5
r_mean = 10.0 / (1 - rho)
print("2-way exact       %.2f ms"
      % forkjoin_response("flatto-hahn", 2, rho=rho, resp=r_mean))
for n in (4, 8, 16):
    scaled = forkjoin_response("nelson-tantawi", n, rho=rho, resp=r_mean)
    bound = harmonic(n) * r_mean
    print("%2d-way scaled     %.2f ms  (max bound %.2f ms)"
          % (n, scaled, bound))

# %% Round-robin routing to a mirrored pair beats random splitting: the
# Erlang-2 arrival stream is smoother.
lam = 60.0
print("random split wait %.2f ms" % mg1_wait(lam, MomentSet.exponential(10.0)).wait)
print("round robin wait  %.2f ms" % gim1_erlang2_wait(lam, 0.1))

# %% Odds and ends: queue-aware arm scheduling halves service at depth 32,
# and the response-time variability collapses to exponential in heavy
# traffic.
print("scheduled service at q=32: %.2f ms" % satf_service_time(6.0, 32))
for rho in (0.05, 0.5, 0.95):
    lam = rho / svc.m1 * 1000.0
    print("rho %.2f  response cv^2 %.3f" % (rho, response_cv(lam, svc)))
