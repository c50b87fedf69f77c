"""Clustered-RAID and replication placement: balanced-incomplete-block
verification, nearly-random-permutation and shifted parity layouts, copyset
replication, and degraded-mode load factors.

Shuffle-network mappings that recompute a permutation per block access are
deliberately absent: per-row permutation and deterministic shifting cover
the balance goals at a fraction of the lookup cost.
"""

import math
from dataclasses import dataclass
from itertools import combinations


@dataclass
class LayoutMap:
    """Row x disk assignment of parity-group members.

    assignment[r][d] = (group id, is_parity) or None for an empty cell.
    """

    disks: int
    group_size: int
    rows: int
    assignment: list
    bibd: dict = None
    name: str = "layout"

    def cells(self):
        for r in range(self.rows):
            for d in range(self.disks):
                if self.assignment[r][d] is not None:
                    yield r, d, self.assignment[r][d]

    def groups(self):
        out = {}
        for r, d, (g, par) in self.cells():
            out.setdefault(g, []).append((r, d, par))
        return out

    def parity_counts(self):
        counts = [0] * self.disks
        for _, d, (_, par) in self.cells():
            if par:
                counts[d] += 1
        return counts

    def distinct_disk_violations(self):
        bad = []
        for g, members in self.groups().items():
            disks = [d for _, d, _ in members]
            if len(set(disks)) != len(disks):
                bad.append(g)
        return bad


def verify_bibd(layout):
    """Check the block-design identities and the rebuild balance.

    For parameters (n, k, L): b k = n r, r (k-1) = L (n-1), every disk holds
    r groups, every disk pair co-occurs in exactly L groups, and no group
    touches a disk twice.  Returns a report dict with any violations listed.
    """
    if not layout.bibd:
        raise ValueError("layout carries no design parameters")
    n = layout.disks
    k = layout.bibd["k"]
    l_pairs = layout.bibd["L"]
    groups = layout.groups()
    b = len(groups)
    per_disk = [0] * n
    for members in groups.values():
        for _, d, _ in members:
            per_disk[d] += 1
    r = per_disk[0]
    violations = []
    if b * k != n * r:
        violations.append("bk=%d != nr=%d" % (b * k, n * r))
    if r * (k - 1) != l_pairs * (n - 1):
        violations.append("r(k-1)=%d != L(n-1)" % (r * (k - 1)))
    if any(c != r for c in per_disk):
        violations.append("unequal groups per disk: %r" % (per_disk,))
    pair_count = {}
    for members in groups.values():
        disks = sorted(d for _, d, _ in members)
        for a, bd in combinations(disks, 2):
            pair_count[(a, bd)] = pair_count.get((a, bd), 0) + 1
    bad_pairs = {p: c for p, c in pair_count.items() if c != l_pairs}
    if len(pair_count) != n * (n - 1) // 2 or bad_pairs:
        violations.append("pair co-occurrence != L for %d pairs" % len(bad_pairs))
    violations.extend("group %r reuses a disk" % g
                      for g in layout.distinct_disk_violations())
    return {
        "n": n, "k": k, "L": l_pairs, "b": b, "r": r,
        "ok": not violations,
        "violations": violations,
    }


def rebuild_reads(layout, failed_disk):
    """Strips read from each surviving disk to rebuild one disk."""
    reads = [0] * layout.disks
    groups = layout.groups()
    for members in groups.values():
        disks = [d for _, d, _ in members]
        if failed_disk in disks:
            for d in disks:
                if d != failed_disk:
                    reads[d] += 1
    return reads


def bibd_10_4_2():
    """The worked 10-disk design with group size 4 and pair balance 2.

    Column d of the table lists the six parity groups with a strip on disk d.
    """
    table = [
        [1, 2, 3, 4, 8, 12],
        [1, 4, 6, 7, 9, 13],
        [2, 4, 5, 7, 10, 14],
        [3, 4, 5, 6, 11, 15],
        [1, 5, 8, 10, 11, 13],
        [2, 6, 8, 9, 11, 14],
        [3, 7, 8, 9, 10, 15],
        [1, 5, 9, 12, 14, 15],
        [2, 6, 10, 12, 13, 15],
        [3, 7, 11, 12, 13, 14],
    ]
    rows = 6
    assignment = [[None] * 10 for _ in range(rows)]
    for d, col in enumerate(table):
        for r, g in enumerate(col):
            assignment[r][d] = (g, False)
    # mark the first strip of each group as its parity
    seen = set()
    for r in range(rows):
        for d in range(10):
            g, _ = assignment[r][d]
            if g not in seen:
                assignment[r][d] = (g, True)
                seen.add(g)
    return LayoutMap(disks=10, group_size=4, rows=rows, assignment=assignment,
                     bibd={"k": 4, "L": 2}, name="bibd(10,4,2)")


def _initial_allocation(n, g, rows, parity_position="last"):
    """Consecutive parity groups laid row-major across n columns."""
    assignment = [[None] * n for _ in range(rows)]
    for idx in range(rows * n):
        group = idx // g
        offset = idx % g
        r, d = divmod(idx, n)
        is_par = offset == (g - 1 if parity_position == "last" else 0)
        assignment[r][d] = (group, is_par)
    return assignment


def _splitmix64(x):
    # 64-bit mix used to derive one permutation seed per row batch
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def nrp_layout(n, g, rows=None, seed=0, perms=None):
    """Nearly-random permutation layout.

    Consecutive groups are laid row-major, then columns are permuted in
    batches of K = gcd(n, g) rows (a single shared permutation when g
    divides n).  Permutations are seeded from a 64-bit hash of the batch
    start row; explicit `perms` override them (cycled as needed).
    Permutation semantics: the strip in old column j moves to column P[j].
    """
    # numpy loads only where permutations are drawn, so that checking a
    # block design does not pay for it
    import numpy as np
    if not 2 <= g <= n:
        raise ValueError("need N >= G >= 2")
    k = math.gcd(n, g)
    if rows is None:
        rows = max(k, math.lcm(n, g) // n)
    if rows % k:
        raise ValueError("rows must be a multiple of gcd(N,G)=%d" % k)
    base = _initial_allocation(n, g, rows)
    assignment = [[None] * n for _ in range(rows)]
    single = n % g == 0
    cached = None
    for batch, start in enumerate(range(0, rows, k)):
        if perms is not None:
            perm = list(perms[batch % len(perms)])
        elif single and cached is not None:
            perm = cached
        else:
            rng = np.random.default_rng(_splitmix64(seed * 0x10001 + start))
            perm = list(rng.permutation(n))
            cached = perm
        if sorted(perm) != list(range(n)):
            raise ValueError("bad permutation %r" % (perm,))
        for r in range(start, start + k):
            for j in range(n):
                assignment[r][perm[j]] = base[r][j]
    return _distinct_disks(LayoutMap(disks=n, group_size=g, rows=rows,
                                     assignment=assignment,
                                     name="nrp(%d,%d)" % (n, g)))


def _distinct_disks(layout):
    """The layout, after checking that no group lands twice on a disk."""
    bad = layout.distinct_disk_violations()
    if bad:
        raise AssertionError("groups %r land twice on a disk" % (bad,))
    return layout


def shifted_layout(n, g, parity_position=None):
    """Shifted parity-group placement balancing parity across disks.

    Groups are laid consecutively; each successive segment of
    K = lcm(N,G)/N rows is rotated left by one more column, cycling through
    gcd(N,G) shift variants (no shifting when N and G are coprime).  Parity
    defaults to the first strip of each group when coprime (parity columns
    then follow i*G mod N) and to the last strip otherwise.
    """
    if not 2 <= g <= n:
        raise ValueError("need N >= G >= 2")
    if parity_position is None:
        parity_position = "first" if math.gcd(n, g) == 1 else "last"
    k_rows = math.lcm(n, g) // n
    variants = math.gcd(n, g)
    rows = k_rows * variants
    base = _initial_allocation(n, g, rows, parity_position)
    assignment = [[None] * n for _ in range(rows)]
    for seg in range(rows // k_rows):
        shift = seg % variants
        for r in range(seg * k_rows, (seg + 1) * k_rows):
            for j in range(n):
                idx = (r - seg * k_rows) * n + j
                src = (idx + shift) % (k_rows * n)
                sr, sj = divmod(src, n)
                assignment[r][j] = base[seg * k_rows + sr][sj]
    return _distinct_disks(LayoutMap(disks=n, group_size=g, rows=rows,
                                     assignment=assignment,
                                     name="shifted(%d,%d)" % (n, g)))


def parity_columns(layout):
    """Columns of the parity strips in layout order."""
    cols = []
    for r in range(layout.rows):
        for d in range(layout.disks):
            cell = layout.assignment[r][d]
            if cell and cell[1]:
                cols.append((cell[0], d))
    cols.sort()
    return [d for _, d in cols]


def clustered_utilizations(n, g, total_rate, read_fraction, t_read,
                           t_write=None, t_rmw=None):
    """Degraded-mode disk utilizations of a declustered parity array.

    rho_read  = Lf_r/(N-1) (N+G-2)/N T_read
    rho_write = Lf_w/(N-1) [ (G-2)/N T_read + 2/N T_write + 2(N-2)/N T_rmw ]
    Also returns the declustering ratio alpha = (G-1)/(N-1).
    """
    if g > n:
        raise ValueError("group cannot exceed the disk count")
    t_write = t_read if t_write is None else t_write
    t_rmw = t_read if t_rmw is None else t_rmw
    f_r = read_fraction
    f_w = 1.0 - f_r
    rho_read = total_rate * f_r / (n - 1) * ((n + g - 2) / n * t_read)
    rho_write = (total_rate * f_w / (n - 1)
                 * ((g - 2) / n * t_read + 2.0 / n * t_write
                    + 2.0 * (n - 2) / n * t_rmw))
    alpha = (g - 1) / (n - 1)
    return rho_read, rho_write, alpha


def placement_ideal_exists(n, k, r):
    """Predicate for the existence of a placement-ideal declustered layout
    with n drives, k strips per group and r strips per disk (as stated;
    existence search is out of scope).

    Requires k | r and (n-1) | k(r-1), plus one of: k = n, k = n-1, k = 2,
    (k, n) = (3, 5), or (k, n) = (4, 7).
    """
    if n < 2 or not 1 <= k <= n or r < 1:
        raise ValueError("need n >= 2, 1 <= k <= n, r >= 1")
    if r % k or (k * (r - 1)) % (n - 1):
        return False
    return (k == n or k == n - 1 or k == 2
            or (k, n) == (3, 5) or (k, n) == (4, 7))


def layout_to_json(layout):
    """LayoutMap as a plain JSON document."""
    return {
        "name": layout.name,
        "disks": layout.disks,
        "group_size": layout.group_size,
        "rows": layout.rows,
        "assignment": [[None if cell is None else [cell[0], bool(cell[1])]
                        for cell in row] for row in layout.assignment],
        "bibd": layout.bibd,
    }


def layout_from_json(doc):
    assignment = [[None if cell is None else (cell[0], bool(cell[1]))
                   for cell in row] for row in doc["assignment"]]
    return LayoutMap(disks=doc["disks"], group_size=doc["group_size"],
                     rows=doc["rows"], assignment=assignment,
                     bibd=doc.get("bibd"), name=doc.get("name", "layout"))


# ---------------------------------------------------------------------------
# copyset replication


@dataclass
class CopysetScheme:
    """Cluster of N nodes, replication R, scatter width S."""

    nodes: int
    replication: int
    scatter_width: int
    scheme: str = "copyset"     # or "random"
    permutations: tuple = None
    seed: int = 0

    def __post_init__(self):
        if self.replication > self.nodes:
            raise ValueError("replication exceeds node count")
        if self.scatter_width > self.nodes - 1:
            raise ValueError("scatter width exceeds N-1")
        if self.scheme == "copyset":
            p = self.scatter_width / (self.replication - 1)
            if abs(p - round(p)) > 1e-12:
                raise ValueError(
                    "copyset scheme needs S divisible by R-1 "
                    "(S=%d, R=%d); choose S a multiple of %d"
                    % (self.scatter_width, self.replication,
                       self.replication - 1))
            if self.nodes % self.replication:
                raise ValueError("copyset scheme needs R | N")

    @property
    def n_permutations(self):
        return self.scatter_width // (self.replication - 1)


def copysets(scheme):
    """The set of R-sets that may jointly hold all replicas of some chunk.

    random: every {i} + (R-1)-subset of the S nodes after i.
    copyset: P = S/(R-1) permutations chopped into consecutive R-sets; the
    permutations are redrawn until every node's partners are disjoint across
    permutations (exact scatter width).  Explicit permutations must each
    order the nodes 0..N-1 and keep partners disjoint, or ValueError.
    """
    import numpy as np
    n, r, s = scheme.nodes, scheme.replication, scheme.scatter_width
    if scheme.scheme == "random":
        out = set()
        for i in range(n):
            window = [(i + j) % n for j in range(1, s + 1)]
            for rest in combinations(window, r - 1):
                out.add(frozenset((i,) + rest))
        return out
    if scheme.scheme != "copyset":
        raise ValueError("scheme must be 'random' or 'copyset'")
    p = scheme.n_permutations
    if scheme.permutations is not None:
        perms = [list(perm) for perm in scheme.permutations]
        if len(perms) != p:
            raise ValueError("need exactly %d permutations" % p)
        if any(sorted(perm) != list(range(n)) for perm in perms):
            raise ValueError("each permutation must order the nodes 0..%d"
                             % (n - 1))
        if not _disjoint(perms, n, r):
            raise ValueError("permutations share partners: scatter width "
                             "would fall below %d" % s)
    else:
        rng = np.random.default_rng(scheme.seed)
        perms = []
        for attempt in range(10_000):
            trial = perms + [list(rng.permutation(n))]
            if _disjoint(trial, n, r):
                perms = trial
                if len(perms) == p:
                    break
        if len(perms) != p:
            raise RuntimeError("could not draw disjoint permutations")
    return set(map(frozenset, _chopped(perms, n, r)))


def _chopped(perms, n, r):
    """Each permutation of the n nodes cut into consecutive R-sets."""
    return [perm[start:start + r] for perm in perms
            for start in range(0, n, r)]


def _disjoint(perms, n, r):
    """Partners stay disjoint across the permutations iff each node has
    r - 1 new ones per permutation."""
    return all(len(others) == (r - 1) * len(perms)
               for others in _partners(n, _chopped(perms, n, r)))


def _partners(n, groups):
    """Each of the n nodes' partners: the other members of its groups."""
    partners = [set() for _ in range(n)]
    for group in groups:
        for i in group:
            partners[i].update(group)
            partners[i].discard(i)
    return partners


def copyset_pdl(scheme):
    """Probability that R simultaneous node failures lose data,
    |copysets| / C(N, R) (the canonical loss event), returned exactly as a
    Fraction, with the number of copysets.  sim_copyset_loss covers other
    failure counts."""
    from fractions import Fraction
    r = scheme.replication
    sets = copysets(scheme)
    return Fraction(len(sets), math.comb(scheme.nodes, r)), len(sets)


def scatter_widths(scheme):
    """Observed per-node scatter width of the scheme's copysets."""
    return [len(others)
            for others in _partners(scheme.nodes, copysets(scheme))]
