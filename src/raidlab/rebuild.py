"""Rebuild-time and rebuild-interference analysis under the vacationing
server model, plus the bandwidth-based estimate and the permanent-customer
comparison.

The server reads rebuild units (tracks by default) only while idle of
external requests: the first read of an idle period needs a seek (type 1),
consecutive reads do not (type 2).
"""

import math
from dataclasses import dataclass

from . import disk as diskmod
from .disk import Deterministic, MomentSet, transform_eval
from .queueing import MS_PER_S, SaturationError, mg1_wait, offered_load


@dataclass
class VacationStats:
    """Two-type vacation mixture at a given external arrival rate."""

    q1: float              # interrupted vacation is type 1
    q2: float
    n_track: float         # mean rebuild units read per idle period
    v_moments: MomentSet   # mixture moments
    v_residual: float      # ms


@dataclass
class RebuildConfig:
    """Rebuild-unit geometry and the staged-load discretization."""

    tracks: int = None             # rebuild units on the failed disk
    ru_fraction: float = 1.0       # RU size as a fraction of a track
    utilized_fraction: float = 1.0
    stages: int = 10
    beta: float = 1.75             # shortcut slowdown coefficient

    def __post_init__(self):
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if not 0 < self.utilized_fraction <= 1:
            raise ValueError("utilized fraction must be in (0,1]")


def vacation_stats(v1, v2, arrival_rate):
    """Vacation mixture for type-1/type-2 vacation distributions.

    n_track = 1 + V1*(lam) / (1 - V2*(lam)); mixture moments weight type 1 by
    the chance the idle period ends during the first read and type 2
    otherwise.  At lam = 0 vacations are never interrupted; the mixture
    degenerates to type 2 and n_track is unbounded (reported as inf).
    """
    if arrival_rate < 0:
        raise ValueError("arrival rate must be >= 0")
    lam = arrival_rate / MS_PER_S
    m1 = v1.moments()
    m2_ = v2.moments()
    lst1 = transform_eval(v1, lam)
    lst2 = transform_eval(v2, lam)
    if lam == 0.0 or lst2 >= 1.0:
        # never-interrupted (or zero-length) consecutive reads: the mixture
        # degenerates to type 2 and the whole remainder is read back-to-back
        mix = m2_
        n_track = math.inf
        q1, q2 = 0.0, 1.0
    else:
        n_track = 1.0 + lst1 / (1.0 - lst2)
        denom = 1.0 - lst2 + lst1
        q1 = (1.0 - lst2) / denom
        q2 = 1.0 - q1
        mix = MomentSet(
            ((1.0 - lst2) * m1.m1 + lst1 * m2_.m1) / denom,
            ((1.0 - lst2) * m1.m2 + lst1 * m2_.m2) / denom,
            ((1.0 - lst2) * m1.m3 + lst1 * m2_.m3) / denom,
        )
    residual = mix.m2 / (2.0 * mix.m1) if mix.m1 > 0 else 0.0
    return VacationStats(q1, q2, n_track, mix, residual)


def vsm_wait(arrival_rate, svc, vac):
    """Mean external wait with rebuild vacations: M/G/1 wait plus the mean
    residual vacation."""
    base = mg1_wait(arrival_rate, svc)
    w = base.wait + vac.v_residual
    return type(base)(w, base.wait_m2, w + svc.m1, base.utilization)


def delay_cycle(arrival_rate, mean_service, v_residual):
    """Delay-cycle quantities: (T_dc, T_ct, busy period g), ms.

    g = x/(1-rho);  T_dc = (x + v_r)/(1-rho);  T_ct = T_dc + 1/lambda.
    T_ct is None at lambda = 0 (no cycles).
    """
    lam, rho = offered_load(arrival_rate, mean_service)
    g = mean_service / (1.0 - rho)
    t_dc = (mean_service + v_residual) / (1.0 - rho)
    t_ct = t_dc + 1.0 / lam if lam > 0 else None
    return t_dc, t_ct, g


def _vacation_dists(profile, cfg):
    """Type-1 (seek + RU read) and type-2 (RU read) vacation distributions."""
    ru_time = cfg.ru_fraction * profile.track_time()
    v2 = Deterministic(ru_time)
    return diskmod.seek_time_dist(profile).shift(ru_time), v2


def _tracks(profile, cfg):
    if cfg.tracks is not None:
        return cfg.tracks
    return int(round(profile.cylinders * cfg.utilized_fraction
                     / cfg.ru_fraction))


def rebuild_time_vsm(profile, workload, cfg, mode="staged"):
    """Rebuild time by cycle counting, in ms.

    staged: the degraded load trajectory is discretized in cfg.stages steps
    from doubled load down to normal load, rho_i = (2 - i/k) rho; each stage
    rebuilds an equal share of the rebuild units.
    shortcut: T(0) / (1 - beta * rho).

    The unit of work is a track-sized read; coding at sub-strip granularity
    only changes what a unit means, not the cycle arithmetic.
    """
    svc = diskmod.service_time_moments(profile, workload.request_sectors)
    n_units = _tracks(profile, cfg)
    v1, v2 = _vacation_dists(profile, cfg)
    sequential = n_units * v2.value

    lam0 = workload.arrival_rate
    rho0 = lam0 / MS_PER_S * svc.m1
    if mode == "shortcut":
        if cfg.beta * rho0 >= 1:
            raise SaturationError(cfg.beta * rho0)
        return sequential / (1.0 - cfg.beta * rho0)
    if mode != "staged":
        raise ValueError("mode must be 'staged' or 'shortcut'")
    if lam0 == 0:
        return sequential
    total = 0.0
    k = cfg.stages
    for i in range(1, k + 1):
        lam_i = (2.0 - i / k) * lam0
        vac = vacation_stats(v1, v2, lam_i)
        _, t_ct, _ = delay_cycle(lam_i, svc.m1, vac.v_residual)
        total += (n_units / k) / vac.n_track * t_ct
    return total


def rebuild_time_bandwidth(profile, workload, cfg, force_single_ru=False):
    """Rebuild time from the mean rebuild transfer rate, in ms.

    b_d = n_RU * s_RU / (T_dc + x_seek + x_lat + n_RU * x_RU) with the run
    length n_RU = 1 / (1 - e^{-lam x_RU}); the first RU of a run pays a seek
    plus latency (1 + f^2) T_rot / 2 for an RU of track fraction f.
    force_single_ru=True reproduces the upper-bound variant.
    """
    svc = diskmod.service_time_moments(profile, workload.request_sectors)
    lam, _ = offered_load(workload.arrival_rate, svc.m1)
    f = cfg.ru_fraction
    t_rot = profile.rotation_time
    rate = profile.media_rate_bytes_ms()                    # bytes/ms
    ru_bytes = f * profile.capacity_bytes / profile.cylinders
    x_ru = ru_bytes / rate
    if force_single_ru or lam == 0.0:
        n_ru = 1.0 if force_single_ru else math.inf
    else:
        n_ru = 1.0 / (1.0 - math.exp(-lam * x_ru))
    x_lat = (1.0 + f * f) * t_rot / 2.0
    seek = diskmod.seek_time_moments(
        diskmod.seek_distance_pmf(profile), profile.seek_time)
    if lam == 0.0 and not force_single_ru:
        b_d = rate  # back-to-back RU reads at the sustained media rate
    else:
        vac = vacation_stats(*_vacation_dists(profile, cfg), workload.arrival_rate)
        t_dc, _, _ = delay_cycle(workload.arrival_rate, svc.m1, vac.v_residual)
        b_d = (n_ru * ru_bytes) / (t_dc + seek.m1 + x_lat + n_ru * x_ru)
    return cfg.utilized_fraction * profile.capacity_bytes / b_d


def pcm_interception(arrival_rate, x_ru, w_ru):
    """Probability a rebuild read is intercepted by external arrivals under
    the vacationing-server and permanent-customer disciplines."""
    if arrival_rate < 0 or x_ru < 0 or w_ru < 0:
        raise ValueError("arguments must be nonnegative")
    lam = arrival_rate / MS_PER_S
    p_vsm = 1.0 - math.exp(-lam * x_ru)
    p_pcm = 1.0 - math.exp(-lam * (x_ru + w_ru))
    return p_vsm, p_pcm


def degraded_load_increase(n_disks, read_fraction):
    """Surviving-disk load increase after one failure in an n-disk stripe.

    LoadIncr = N/(N-1) + [(N-2) f_R + (4(N-4)/3) f_W] / ((N-1)(f_R + 4 f_W)).
    Endpoints: 4/3 for pure writes, 2 for pure reads, for every N.
    """
    if n_disks < 3:
        raise ValueError("need at least 3 disks")
    if not 0 <= read_fraction <= 1:
        raise ValueError("read fraction must be in [0,1]")
    n = float(n_disks)
    fr = read_fraction
    fw = 1.0 - fr
    return (n / (n - 1.0)
            + ((n - 2.0) * fr + 4.0 * (n - 4.0) / 3.0 * fw)
            / ((n - 1.0) * (fr + 4.0 * fw)))
