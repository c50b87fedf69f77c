"""Physical disk geometry and service-time distribution machinery.

Everything here feeds the queueing and rebuild analyses: the seek-distance
distribution (with or without zoned recording), moments of seek/latency/
transfer, and exact Laplace-Stieltjes transform evaluation over the discrete
distributions.  Units are fixed: milliseconds for durations, cylinders for
distances; conversions happen at the boundary.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass
class MomentSet:
    """First three raw moments (ms, ms^2, ms^3) plus variance of a duration."""

    m1: float
    m2: float
    m3: float = 0.0

    def __post_init__(self):
        floor = self.m1 ** 2 * (1 - 1e-9)
        if floor < sys.float_info.min:
            floor = 0.0  # m1**2 is subnormal, and m2 may have underflowed
        if self.m1 < 0 or self.m2 < floor:
            raise ValueError("inconsistent moments m1=%g m2=%g" % (self.m1, self.m2))

    @property
    def variance(self):
        return self.m2 - self.m1 ** 2

    @property
    def cv2(self):
        """Squared coefficient of variation."""
        return self.variance / self.m1 ** 2 if self.m1 else 0.0

    @staticmethod
    def exponential(mean):
        return MomentSet(mean, 2 * mean ** 2, 6 * mean ** 3)

    @staticmethod
    def deterministic(value):
        return MomentSet(value, value ** 2, value ** 3)


class _RawMoments:
    """The first three raw moments of a distribution from its moment(i)."""

    def moments(self):
        return MomentSet(self.moment(1), self.moment(2), self.moment(3))


class DiscreteDist(_RawMoments):
    """Finite distribution over nonnegative values (durations or distances)."""

    def __init__(self, values, probs):
        self.values = np.asarray(values, dtype=float)
        self.probs = np.asarray(probs, dtype=float)
        if self.values.shape != self.probs.shape:
            raise ValueError("values and probs differ in shape")
        total = float(self.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("probabilities sum to %.15g, not 1" % total)
        if (self.values < 0).any() or (self.probs < -1e-300).any():
            raise ValueError("negative value or probability")

    def moment(self, i):
        return float(np.dot(self.probs, self.values ** i))

    @property
    def mean(self):
        return self.moment(1)

    def shift(self, delta):
        """Distribution of X + delta for deterministic delta >= 0."""
        return DiscreteDist(self.values + delta, self.probs)

    def map(self, fn):
        return DiscreteDist(fn(self.values), self.probs)

    def sample(self, rng, size):
        idx = rng.choice(len(self.values), size=size, p=self.probs / self.probs.sum())
        return self.values[idx]


@dataclass
class Uniform(_RawMoments):
    """Uniform(0, width) duration, used for rotational latency."""

    width: float

    def moment(self, i):
        return self.width ** i / (i + 1)


@dataclass
class Deterministic(_RawMoments):
    value: float

    def moment(self, i):
        return self.value ** i


@dataclass
class DiskProfile:
    """Cylinder count, zoning, rotation and seek characteristic of a drive.

    seek_char is (a, b) or (a, b, c) for t_seek(d) = a + b*sqrt(d-1) [+ c*(d-1)]
    in ms.  zones is a sequence of (track_count, sectors_per_track); a missing
    zone table means a single zone whose track capacity is derived from the
    total sector count.
    """

    cylinders: int
    rotation_time: float            # ms
    seek_char: tuple
    zones: tuple = ()
    sector_size: int = 512          # bytes
    total_sectors: int = None
    no_move_prob: float = None      # defaults to 1/C
    iops_rating: float = None       # 1/s, for IO-equivalent costing
    media_rate: float = None        # MB/s
    name: str = "disk"

    def __post_init__(self):
        if self.cylinders < 1:
            raise ValueError("cylinders must be >= 1")
        if self.rotation_time <= 0:
            raise ValueError("rotation_time must be positive")
        if self.no_move_prob is not None and not 0 <= self.no_move_prob <= 1:
            raise ValueError("no_move_prob must be in [0,1]")
        self.zones = tuple(tuple(z) for z in self.zones)
        if not self.zones:
            if self.total_sectors:
                per = max(1, round(self.total_sectors / self.cylinders))
            else:
                per = 1000
            self.zones = ((self.cylinders, per),)
        if any(n <= 0 or c <= 0 for n, c in self.zones):
            raise ValueError("zone entries must be positive")
        if sum(n for n, _ in self.zones) != self.cylinders:
            raise ValueError("zone track counts must sum to the cylinder count")
        if len(self.seek_char) not in (2, 3) or any(v < 0 for v in self.seek_char):
            raise ValueError("seek_char must be nonneg (a, b) or (a, b, c)")

    def seek_time(self, d):
        """Seek time in ms for a move of d cylinders (vectorized); 0 at d=0."""
        d = np.asarray(d, dtype=float)
        a, b = self.seek_char[0], self.seek_char[1]
        t = a + b * np.sqrt(np.maximum(d - 1, 0.0))
        if len(self.seek_char) == 3:
            t = t + self.seek_char[2] * np.maximum(d - 1, 0.0)
        t = np.where(d <= 0, 0.0, t)
        return float(t) if t.ndim == 0 else t

    def sectors_per_cylinder(self):
        """Sector count of each cylinder, expanded from the zone table."""
        return np.repeat([c for _, c in self.zones],
                         [n for n, _ in self.zones]).astype(float)

    @property
    def capacity_sectors(self):
        return sum(n * c for n, c in self.zones)

    @property
    def capacity_bytes(self):
        return self.capacity_sectors * self.sector_size

    def track_time(self):
        """Time to read one full track (zero-latency access)."""
        return self.rotation_time

    def media_rate_bytes_ms(self):
        """Mean sustained transfer rate in bytes/ms over all tracks."""
        return self.capacity_bytes / (self.cylinders * self.rotation_time)


def cheetah_15k5():
    """The 146 GB 15k RPM drive used as the worked fixture.

    Cylinder count, sector total, heads and RPM are the published values; the
    seek characteristic coefficients are representative (the source quotes
    only the functional form t = a + b*sqrt(d-1)).
    """
    rpm = 15015.0
    return DiskProfile(
        cylinders=72170,
        rotation_time=60000.0 / rpm,
        seek_char=(0.4, 0.02),
        total_sectors=286749487,
        sector_size=512,
        iops_rating=333.0,
        media_rate=62.0,
        name="cheetah-15k5",
    )


def seek_distance_pmf(profile, mode="uniform-cylinder"):
    """Seek distance distribution over d in 0..C-1.

    uniform-cylinder: P[0] = p (1/C unless overridden),
    P[d] = (1-p) * 2(C-d)/(C(C-1)).
    zbr-weighted: cylinder access probability proportional to its sector
    count; P(d) collects P_c(c+d) + P_c(c-d) over start cylinders c.
    """
    c = profile.cylinders
    if c < 2:
        raise ValueError("need at least 2 cylinders for a seek distribution")
    d = np.arange(c, dtype=float)
    if mode == "uniform-cylinder":
        p = profile.no_move_prob
        if p is None:
            p = 1.0 / c
        probs = (1.0 - p) * 2.0 * (c - d) / (c * (c - 1))
        probs[0] = p
        return DiscreteDist(d, probs)
    if mode == "zbr-weighted":
        sect = profile.sectors_per_cylinder()
        pc = sect / sect.sum()
        # autocorrelation: sum_c pc[c] * pc[c+d]; full pmf is symmetric in d
        corr = np.correlate(pc, pc, mode="full")  # lags -(C-1)..C-1
        lag0 = len(pc) - 1
        probs = np.empty(c)
        probs[0] = corr[lag0]
        probs[1:] = 2.0 * corr[lag0 + 1:]
        return DiscreteDist(d, probs)
    raise ValueError("mode must be 'uniform-cylinder' or 'zbr-weighted'")


def seek_time_moments(pmf, seek_time_fn):
    """Moments of seek time over a seek-distance pmf; d=0 contributes 0."""
    t = np.where(pmf.values > 0, seek_time_fn(pmf.values), 0.0)
    return _weighted_moments(pmf.probs, t)


def seek_time_dist(profile):
    """Seek time as a discrete distribution (exact transform carrier)."""
    return seek_distance_pmf(profile).map(profile.seek_time)


def transfer_moments(profile, block_sectors):
    """Transfer-time moments for a block, averaged over cylinders.

    Time on cylinder c is j * T_rot / s_c, weighted by the probability of
    being on that cylinder (proportional to its capacity).
    """
    sect = profile.sectors_per_cylinder()
    t = block_sectors * profile.rotation_time / sect
    return _weighted_moments(sect / sect.sum(), t)


def _weighted_moments(w, t):
    """First three raw moments of the values t under the probabilities w."""
    return MomentSet(float(w @ t), float(w @ t ** 2), float(w @ t ** 3))


def service_time_moments(profile, block_sectors=8):
    """Moments of seek + latency + transfer for a random small-block access.

    Latency is uniform over a rotation (i-th moment T_rot^i / (i+1)); the
    three components are treated as independent, which holds for small
    blocks.
    """
    if block_sectors < 1:
        raise ValueError("block_sectors must be >= 1")
    s = seek_time_moments(seek_distance_pmf(profile), profile.seek_time)
    l = Uniform(profile.rotation_time).moments()
    t = transfer_moments(profile, block_sectors)
    return sum_of_independent(s, l, t)


def sum_of_independent(*parts):
    """Moments of a sum of independent nonnegative durations.

    E[(X+Y+Z)^3] = sum E[Xi^3] + 3 sum_{i!=j} E[Xi^2]E[Xj]
                 + sum over distinct triples of E[Xi]E[Xj]E[Xk].
    """
    m1 = sum(p.m1 for p in parts)
    var = sum(p.variance for p in parts)
    m2 = var + m1 ** 2
    n = len(parts)
    m3 = sum(p.m3 for p in parts)
    for i in range(n):
        for j in range(n):
            if i != j:
                m3 += 3 * parts[i].m2 * parts[j].m1
            for k in range(n):
                if len({i, j, k}) == 3:
                    m3 += parts[i].m1 * parts[j].m1 * parts[k].m1
    return MomentSet(m1, m2, m3)


def transform_eval(dist, s):
    """E[e^{-sX}]: exact Laplace-Stieltjes transform value at s >= 0.

    Accepts DiscreteDist, Uniform, Deterministic; a list or tuple is treated
    as an independent sum (transforms multiply).
    """
    if s < 0:
        raise ValueError("transform argument must be >= 0")
    if isinstance(dist, (list, tuple)):
        out = 1.0
        for d in dist:
            out *= transform_eval(d, s)
        return out
    if isinstance(dist, DiscreteDist):
        return float(dist.probs @ np.exp(-s * dist.values))
    if isinstance(dist, Uniform):
        if s == 0 or dist.width == 0:
            return 1.0
        x = s * dist.width
        return (1.0 - math.exp(-x)) / x
    if isinstance(dist, Deterministic):
        return math.exp(-s * dist.value)
    raise TypeError("unsupported distribution %r" % (dist,))


def kway_seek_expectations(cylinders, k):
    """Expected minimum and maximum seek distance over k uniform choices.

    E[min] ~ C/(2k+1); E[max] = C(1 - I_k) with
    I_k = (2k/(2k+1)) * ((2k-2)/(2k-1)) * ... * (2/3).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if cylinders < 2:
        raise ValueError("need at least 2 cylinders")
    ik = 1.0
    j = 2 * k
    while j >= 2:
        ik *= j / (j + 1)
        j -= 2
    return cylinders / (2 * k + 1), cylinders * (1.0 - ik)
