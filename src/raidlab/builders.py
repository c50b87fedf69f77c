"""Builders for the erasure-code constructions and layout fixtures.

Each builder returns a CodeSpec whose encode is consistent (every equation
balances after check computation); builders with free parameters validate
them (primality, divisibility) and raise ValueError otherwise.
"""

from dataclasses import replace

from . import gf
from .codes import (CodeSpec, find_lrc_coefficients, grid_compose,
                    recoverable_fraction)


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def raid5(n):
    """Single-parity stripe over n disks: P = D_1 xor ... xor D_{n-1}."""
    if n < 3:
        raise ValueError("raid5 needs at least 3 disks")
    data = tuple("d%d" % i for i in range(1, n))
    terms = tuple((d, 1) for d in data) + (("p", 1),)
    return CodeSpec(
        name="raid5(%d)" % n,
        field=gf.GF2,
        data_ids=data,
        check_ids=("p",),
        equations=(("p", terms),),
    )


def raid4k(n, k, field=gf.GF256):
    """MDS stripe with k checks from Vandermonde rows; MDS verified by
    enumeration at build time for small n."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    m = n - k
    # the powers of a primitive element are distinct up to order - 1 of them
    if m > field.order - 1:
        raise ValueError("field too small for %d data symbols" % m)
    alphas = [field.exp[i] for i in range(m)]
    data = tuple("d%d" % i for i in range(m))
    checks = tuple("c%d" % j for j in range(k))
    equations = []
    for j in range(k):
        terms = tuple((data[i], field.pow(alphas[i], j)) for i in range(m))
        equations.append((checks[j], terms + ((checks[j], 1),)))
    code = CodeSpec(
        name="raid4k(%d,%d)" % (n, k),
        field=field,
        data_ids=data,
        check_ids=checks,
        equations=tuple(equations),
    )
    if n <= 16 and recoverable_fraction(code, k)[1] != 1:
        raise ValueError("generator is not MDS for n=%d k=%d" % (n, k))
    return code


def rdp(p):
    """Row+diagonal double parity over p+1 disks; p must be prime.

    Cell (i, j) for rows i = 0..p-2.  Columns 0..p-2 hold data, column p-1
    the row parity, column p the diagonal parity.  Diagonal k collects cells
    with (i + j) mod p == k over the first p columns; diagonal p-1 is not
    stored.
    """
    if not _is_prime(p) or p <= 2:
        raise ValueError("rdp needs a prime p > 2")
    rows = p - 1

    def cell(i, j):
        return "d%d_%d" % (i, j)

    data = tuple(cell(i, j) for i in range(rows) for j in range(p - 1))
    rowpar = tuple(cell(i, p - 1) for i in range(rows))
    diagpar = tuple(cell(i, p) for i in range(rows))
    equations = []
    for i in range(rows):
        terms = tuple((cell(i, j), 1) for j in range(p - 1)) + ((cell(i, p - 1), 1),)
        equations.append((cell(i, p - 1), terms))
    for k in range(p - 1):
        members = [(cell(i, j), 1)
                   for i in range(rows) for j in range(p)
                   if (i + j) % p == k]
        equations.append((cell(k, p), tuple(members) + ((cell(k, p), 1),)))
    column_map = {}
    row_map = {}
    for i in range(rows):
        for j in range(p + 1):
            column_map[cell(i, j)] = j
            row_map[cell(i, j)] = i
    return CodeSpec(
        name="rdp(%d)" % p,
        field=gf.GF2,
        data_ids=data,
        check_ids=rowpar + diagpar,
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def xcode(n):
    """Vertical double-parity array on n (prime) disks.

    Rows 0..n-3 hold data; row n-2 holds the +1-slope diagonal parities p(i)
    and row n-1 the -1-slope parities q(i):
      p(i) = sum_k B[k, (i-k-2) mod n],  q(i) = sum_k B[k, (i+k+2) mod n].
    """
    if not _is_prime(n) or n <= 3:
        raise ValueError("xcode needs a prime number of disks > 3")

    def cell(i, j):
        return "b%d_%d" % (i, j)

    data = tuple(cell(i, j) for i in range(n - 2) for j in range(n))
    pchecks = tuple(cell(n - 2, i) for i in range(n))
    qchecks = tuple(cell(n - 1, i) for i in range(n))
    equations = []
    for i in range(n):
        terms = tuple((cell(k, (i - k - 2) % n), 1) for k in range(n - 2))
        equations.append((cell(n - 2, i), terms + ((cell(n - 2, i), 1),)))
    for i in range(n):
        terms = tuple((cell(k, (i + k + 2) % n), 1) for k in range(n - 2))
        equations.append((cell(n - 1, i), terms + ((cell(n - 1, i), 1),)))
    column_map = {}
    row_map = {}
    for i in range(n):
        for j in range(n):
            column_map[cell(i, j)] = j
            row_map[cell(i, j)] = i
    return CodeSpec(
        name="xcode(%d)" % n,
        field=gf.GF2,
        data_ids=data,
        check_ids=pchecks + qchecks,
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def spc(n_data):
    """Single parity check stripe (the 1-D building block for grids)."""
    data = tuple("u%d" % i for i in range(n_data))
    terms = tuple((d, 1) for d in data) + (("v", 1),)
    return CodeSpec(
        name="spc(%d)" % n_data,
        field=gf.GF2,
        data_ids=data,
        check_ids=("v",),
        equations=(("v", terms),),
    )


def hvpc(k1, k2):
    """Horizontal+vertical parity grid with the shared corner parity."""
    return replace(grid_compose(spc, spc, k1, k2),
                   name="hvpc(%d,%d)" % (k1, k2))


def rm2(n=7, m=3):
    """Non-MDS double-parity layout: each data strip sits in two parity
    groups; one row in m is parity.  Fixture fixed at N=7, M=3."""
    if (n, m) != (7, 3):
        raise ValueError("rm2 fixture is defined for N=7, M=3")
    # data block {i,j} is protected by parities P_i and P_j; the two data
    # rows of the segment carry pairs (j, j+1) and (j, j+3) per column j
    pairs_row1 = [((j + 2) % 7, (j + 3) % 7) for j in range(7)]
    pairs_row2 = [((j + 1) % 7, (j + 4) % 7) for j in range(7)]
    column_map = {}
    row_map = {}
    data = []
    groups = {i: [] for i in range(7)}
    for col, (a, b) in enumerate(pairs_row1):
        s = "d%d_%d" % (min(a, b), max(a, b))
        data.append(s)
        column_map[s] = col
        row_map[s] = 0
        groups[a].append(s)
        groups[b].append(s)
    for col, (a, b) in enumerate(pairs_row2):
        s = "e%d_%d" % (min(a, b), max(a, b))
        data.append(s)
        column_map[s] = col
        row_map[s] = 1
        groups[a].append(s)
        groups[b].append(s)
    checks = tuple("P%d" % i for i in range(7))
    equations = []
    for i in range(7):
        column_map["P%d" % i] = i
        row_map["P%d" % i] = 2
        terms = tuple((s, 1) for s in groups[i]) + (("P%d" % i, 1),)
        equations.append(("P%d" % i, terms))
    return CodeSpec(
        name="rm2(7,3)",
        field=gf.GF2,
        data_ids=tuple(data),
        check_ids=checks,
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def _lrc(name, groups, local_ids, global_ids):
    """Data-LRC over GF(256): one XOR local parity per data group, then
    global parities sum_i alpha_i^(j+1) d_i over all data, alpha_i = g^i."""
    field = gf.GF256
    data = tuple(d for g in groups for d in g)
    equations = []
    group_map = {}
    for gi, (g, local) in enumerate(zip(groups, local_ids)):
        equations.append((local, tuple((d, 1) for d in g) + ((local, 1),)))
        group_map.update(dict.fromkeys(tuple(g) + (local,), gi))
    for j, glob in enumerate(global_ids):
        terms = tuple((d, field.pow(field.exp[i], j + 1))
                      for i, d in enumerate(data))
        equations.append((glob, terms + ((glob, 1),)))
    return CodeSpec(
        name=name,
        field=field,
        data_ids=data,
        check_ids=tuple(local_ids) + tuple(global_ids),
        equations=tuple(equations),
        group_map=group_map,
    )


def _pyramid(groups, n_global, name):
    """Data-LRC built from an MDS code by splitting its first parity into one
    local parity per group.  Records the base view for two-phase decoding."""
    locals_ = tuple("c1_%d" % (g + 1) for g in range(len(groups)))
    globals_ = tuple("c%d" % (j + 2) for j in range(n_global))
    code = _lrc(name, groups, locals_, globals_)
    split = tuple((d, 1) for d in code.data_ids) + (("p1", 1),)
    return replace(code, base_view={
        "virtuals": {"p1": tuple((l, 1) for l in locals_)},
        "equations": (split,) + tuple(
            terms for _, terms in code.equations[len(groups):]),
    })


def pyramid_8_2_2():
    """8 data in two groups of four, 2 local + 2 global parities (the
    12-symbol pyramid built from an 11-symbol MDS code)."""
    g1 = tuple("d%d" % i for i in range(1, 5))
    g2 = tuple("d%d" % i for i in range(5, 9))
    return _pyramid([g1, g2], 2, "pyramid(8,2,2)")


def pyramid_12_2_2():
    """12 data in two groups of six, 2 local + 3 global parities."""
    g1 = tuple("d%d" % i for i in range(1, 7))
    g2 = tuple("d%d" % i for i in range(7, 13))
    return _pyramid([g1, g2], 3, "pyramid(12,2,2)")


def azure_lrc(n, k, r):
    """Data-LRC with ceil(k/r) XOR local groups and n-k-ceil(k/r) global
    parities over all data (Vandermonde coefficients)."""
    n_local = -(-k // r)
    n_global = n - k - n_local
    if n_global < 0:
        raise ValueError("parameters leave no room for global parities")
    data = tuple("d%d" % i for i in range(k))
    return _lrc("azure_lrc(%d,%d,%d)" % (n, k, r),
                [data[g * r:(g + 1) * r] for g in range(n_local)],
                ["l%d" % g for g in range(n_local)],
                ["g%d" % j for j in range(n_global)])


def xorbas_16_10_5():
    """All-symbol-locality LRC: 10 data + 4 RS parities + 2 stored local
    parities; the local parity of the parity group is implied (S1+S2) via an
    alignment of the local coefficients, giving every symbol locality 5."""
    field = gf.GF256
    data = tuple("x%d" % i for i in range(1, 11))
    xs = [field.exp[i] for i in range(1, 11)]  # avoid x=1 so c_i != 0
    parities = tuple("p%d" % j for j in range(1, 5))
    equations = []
    for j in range(4):
        terms = tuple((data[i], field.pow(xs[i], j)) for i in range(10))
        equations.append((parities[j], terms + ((parities[j], 1),)))
    # local coefficients c_i = sum_j x_i^j align so S1 + S2 + sum_j P_j = 0
    cs = [field.pow(x, 0) ^ field.pow(x, 1) ^ field.pow(x, 2) ^ field.pow(x, 3)
          for x in xs]
    s1_terms = tuple((data[i], cs[i]) for i in range(5)) + (("s1", 1),)
    s2_terms = tuple((data[i], cs[i]) for i in range(5, 10)) + (("s2", 1),)
    equations.append(("s1", s1_terms))
    equations.append(("s2", s2_terms))
    implied = (("s1", 1), ("s2", 1)) + tuple((p, 1) for p in parities)
    group_map = {}
    for i, d in enumerate(data):
        group_map[d] = 0 if i < 5 else 1
    group_map["s1"] = 0
    group_map["s2"] = 1
    for p in parities:
        group_map[p] = 2
    return CodeSpec(
        name="xorbas(16,10,5)",
        field=field,
        data_ids=data,
        check_ids=parities + ("s1", "s2"),
        equations=tuple(equations),
        extra_equations=(implied,),
        group_map=group_map,
    )


def was_lrc_6_2_2(coefficients=None):
    """Two-group LRC over GF(16): 6 data, 2 local, 2 global parities.

    Coefficients default to the smallest set passing the three determinant
    families, which makes every information-theoretically decodable 4-failure
    pattern decodable.
    """
    field = gf.GF16
    if coefficients is None:
        alphas, betas = find_lrc_coefficients(field)
    else:
        alphas, betas = coefficients
    xs = ("x0", "x1", "x2")
    ys = ("y0", "y1", "y2")
    equations = [
        ("px", tuple((x, 1) for x in xs) + (("px", 1),)),
        ("py", tuple((y, 1) for y in ys) + (("py", 1),)),
        ("p0", tuple((xs[i], alphas[i]) for i in range(3))
         + tuple((ys[i], betas[i]) for i in range(3)) + (("p0", 1),)),
        ("p1", tuple((xs[i], field.mul(alphas[i], alphas[i])) for i in range(3))
         + tuple((ys[i], field.mul(betas[i], betas[i])) for i in range(3))
         + (("p1", 1),)),
    ]
    syms = xs + ("px",) + ys + ("py", "p0", "p1")
    group_map = {s: 0 for s in xs + ("px",)}
    group_map.update({s: 1 for s in ys + ("py",)})
    return CodeSpec(
        name="was_lrc(6,2,2)",
        field=field,
        data_ids=xs + ys,
        check_ids=("px", "py", "p0", "p1"),
        equations=tuple(equations),
        column_map={s: i for i, s in enumerate(syms)},
        group_map=group_map,
    )


def pmds_fig(variant="pmds"):
    """4x7 array with one local parity per row plus two global parities.

    variant="pmds" treats the two globals as positions of the row-spanning
    code itself (coefficients a^j / a^{2j} over all 24 cells), which passes
    the one-per-row-plus-two check; variant="sd" puts power coefficients on
    the data only, which survives whole-column-plus-two but not the
    one-per-row PMDS patterns.
    """
    field = gf.GF256
    column_map = {}
    row_map = {}
    data = []
    for i in range(4):
        width = 6 if i < 3 else 4
        for j in range(width):
            s = "d%d" % (i * 6 + j)
            data.append(s)
            column_map[s] = j
            row_map[s] = i
    for s, col in (("g1", 4), ("g2", 5)):
        column_map[s] = col
        row_map[s] = 3
    for i in range(4):
        s = "p%d" % i
        column_map[s] = 6
        row_map[s] = i
    pos = {s: i for i, s in enumerate(data)}
    if variant == "pmds":
        pos["g1"], pos["g2"] = 22, 23
        cells = data + ["g1", "g2"]
        g1_terms = tuple((s, field.pow(field.exp[1], pos[s])) for s in cells)
        g2_terms = tuple((s, field.pow(field.exp[1], 2 * pos[s])) for s in cells)
    elif variant == "sd":
        g1_terms = tuple((s, field.pow(field.exp[1], pos[s]))
                         for s in data) + (("g1", 1),)
        g2_terms = tuple((s, field.pow(field.exp[1], 10 * pos[s]))
                         for s in data) + (("g2", 1),)
    else:
        raise ValueError("variant must be 'pmds' or 'sd'")
    equations = [("g1", g1_terms), ("g2", g2_terms)]
    for i in range(4):
        members = [s for s in data if row_map[s] == i]
        if i == 3:
            members += ["g1", "g2"]
        terms = tuple((s, 1) for s in members) + (("p%d" % i, 1),)
        equations.append(("p%d" % i, terms))
    return CodeSpec(
        name="pmds_fig(%s)" % variant,
        field=field,
        data_ids=tuple(data),
        check_ids=("g1", "g2", "p0", "p1", "p2", "p3"),
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def lsi(n=8):
    """Ring of data disks with pairwise-XOR parity disks between them."""
    if n != 8:
        raise ValueError("lsi fixture is defined for N=8")
    data = ("A", "B", "C", "D")
    checks = ("AB", "BC", "CD", "DA")
    equations = []
    for i, c in enumerate(checks):
        a = data[i]
        b = data[(i + 1) % 4]
        equations.append((c, ((a, 1), (b, 1), (c, 1))))
    syms = ("A", "AB", "B", "BC", "C", "CD", "D", "DA")
    return CodeSpec(
        name="lsi(8)",
        field=gf.GF2,
        data_ids=data,
        check_ids=checks,
        equations=tuple(equations),
        column_map={s: i for i, s in enumerate(syms)},
    )


def sspiral(n=8):
    """Ring of data disks with three-way XOR parities."""
    if n != 8:
        raise ValueError("sspiral fixture is defined for N=8")
    data = ("A", "B", "C", "D")
    checks = ("ABC", "BCD", "CDA", "DAB")
    equations = []
    for i, c in enumerate(checks):
        members = [data[(i + k) % 4] for k in range(3)]
        equations.append((c, tuple((m, 1) for m in members) + ((c, 1),)))
    return CodeSpec(
        name="sspiral(8)",
        field=gf.GF2,
        data_ids=data,
        check_ids=checks,
        equations=tuple(equations),
    )


def mds42():
    """Four nodes with two blocks each; two data nodes, two coded nodes."""
    data = ("A1", "A2", "B1", "B2")
    checks = ("c1", "c2", "c3", "c4")
    equations = (
        ("c1", (("A1", 1), ("B1", 1), ("c1", 1))),
        ("c2", (("A2", 1), ("B2", 1), ("c2", 1))),
        ("c3", (("A2", 1), ("B1", 1), ("c3", 1))),
        ("c4", (("A1", 1), ("A2", 1), ("B2", 1), ("c4", 1))),
    )
    column_map = {"A1": 0, "A2": 0, "B1": 1, "B2": 1,
                  "c1": 2, "c2": 2, "c3": 3, "c4": 3}
    return CodeSpec(
        name="mds42",
        field=gf.GF2,
        data_ids=data,
        check_ids=checks,
        equations=equations,
        column_map=column_map,
    )


def resar_small():
    """Small bipartite layout: every data disklet is in one row parity group
    and one (wrapping) diagonal parity group."""
    cells = []
    for i in range(10):
        width = 4 if i < 9 else 2
        for j in range(2, 2 + width):
            cells.append((i, j))
    data = tuple("n%d" % (6 * i + j) for i, j in cells)
    prow = tuple("P%d" % i for i in range(10))
    pdiag = tuple("D%d" % t for t in range(10))
    equations = []
    for i in range(10):
        members = [("n%d" % (6 * i + j), 1) for (ii, j) in cells if ii == i]
        equations.append((prow[i], tuple(members) + ((prow[i], 1),)))
    for t in range(10):
        members = [("n%d" % (6 * i + j), 1) for (i, j) in cells
                   if (i + j - 2) % 10 == t]
        equations.append((pdiag[t], tuple(members) + ((pdiag[t], 1),)))
    column_map = {}
    for (i, j) in cells:
        column_map["n%d" % (6 * i + j)] = j
    for i, s in enumerate(prow):
        column_map[s] = 6
    for t, s in enumerate(pdiag):
        column_map[s] = 0
    return CodeSpec(
        name="resar_small",
        field=gf.GF2,
        data_ids=data,
        check_ids=prow + pdiag,
        equations=tuple(equations),
        column_map=column_map,
    )


def parity2d():
    """Ten data disks, five parity groups, each disk in a distinct group
    pair (the complete-pair two-dimensional parity design)."""
    pairs = {
        "D1": (1, 2), "D2": (2, 4), "D3": (1, 3), "D4": (3, 4), "D5": (2, 5),
        "D6": (4, 5), "D7": (3, 5), "D8": (1, 5), "D9": (2, 3), "D10": (1, 4),
    }
    groups = {g: [] for g in range(1, 6)}
    for d, (a, b) in pairs.items():
        groups[a].append(d)
        groups[b].append(d)
    data = tuple(sorted(pairs, key=lambda s: int(s[1:])))
    checks = tuple("P%d" % g for g in range(1, 6))
    equations = []
    for g in range(1, 6):
        terms = tuple((d, 1) for d in sorted(groups[g])) + (("P%d" % g, 1),)
        equations.append(("P%d" % g, terms))
    return CodeSpec(
        name="parity2d",
        field=gf.GF2,
        data_ids=data,
        check_ids=checks,
        equations=tuple(equations),
    )


def parity3d():
    """Six data disks, nine pair parity groups; every disk has three
    parities (one vertical, two diagonal)."""
    members = [
        ("P1", ("D1", "D4")), ("P2", ("D2", "D5")), ("P3", ("D3", "D6")),
        ("P4", ("D1", "D3")), ("P5", ("D1", "D2")), ("P6", ("D2", "D3")),
        ("P7", ("D4", "D6")), ("P8", ("D4", "D5")), ("P9", ("D5", "D6")),
    ]
    data = tuple("D%d" % i for i in range(1, 7))
    checks = tuple(p for p, _ in members)
    equations = [(p, tuple((d, 1) for d in ds) + ((p, 1),))
                 for p, ds in members]
    return CodeSpec(
        name="parity3d",
        field=gf.GF2,
        data_ids=data,
        check_ids=checks,
        equations=tuple(equations),
    )


def xcode_with_spc(p):
    """X-code array protected by one extra single-parity row per column."""
    base = xcode(p)
    equations = list(base.equations)
    checks = list(base.check_ids)
    column_map = dict(base.column_map)
    row_map = dict(base.row_map)
    for j in range(p):
        s = "sp%d" % j
        members = [sym for sym in base.symbols if base.column_map[sym] == j]
        equations.append((s, tuple((m, 1) for m in members) + ((s, 1),)))
        checks.append(s)
        column_map[s] = j
        row_map[s] = p
    return CodeSpec(
        name="xcode_spc(%d)" % p,
        field=gf.GF2,
        data_ids=base.data_ids,
        check_ids=tuple(checks),
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def mirrored_org(org, n, clusters=2):
    """Column-granularity chunk codes for the mirrored organizations.

    org: "bm" (pairs), "id" (interleaved declustering, `clusters` clusters),
    "grd" (group rotate), "cd" (chained).  Used as enumeration oracles for
    the closed-form survivable-set coefficients.
    """
    equations = []
    data = []
    checks = []
    column_map = {}
    if org == "bm":
        if n % 2:
            raise ValueError("bm needs even N")
        for i in range(n // 2):
            a, b = "a%d" % i, "a%d_m" % i
            data.append(a)
            checks.append(b)
            column_map[a] = 2 * i
            column_map[b] = 2 * i + 1
            equations.append((b, ((a, 1), (b, 1))))
    elif org == "id":
        c = clusters
        if n % c:
            raise ValueError("id needs c | N")
        per = n // c
        for cl in range(c):
            disks = [cl * per + d for d in range(per)]
            for i in disks:
                for j in disks:
                    if i == j:
                        continue
                    a = "p%d_%d" % (i, j)
                    b = "s%d_%d" % (i, j)
                    data.append(a)
                    checks.append(b)
                    column_map[a] = i
                    column_map[b] = j
                    equations.append((b, ((a, 1), (b, 1))))
    elif org == "grd":
        if n % 2:
            raise ValueError("grd needs even N")
        m = n // 2
        for i in range(m):
            for r in range(m):
                a = "p%d_%d" % (i, r)
                b = "s%d_%d" % (i, r)
                data.append(a)
                checks.append(b)
                column_map[a] = i
                column_map[b] = m + (i + r) % m
                equations.append((b, ((a, 1), (b, 1))))
    elif org == "cd":
        for i in range(n):
            a = "p%d" % i
            b = "s%d" % i
            data.append(a)
            checks.append(b)
            column_map[a] = i
            column_map[b] = (i + 1) % n
            equations.append((b, ((a, 1), (b, 1))))
    else:
        raise ValueError("unknown mirrored organization %r" % (org,))
    return CodeSpec(
        name="%s(%d)" % (org, n),
        field=gf.GF2,
        data_ids=tuple(data),
        check_ids=tuple(checks),
        equations=tuple(equations),
        column_map=column_map,
    )


BUILDERS = {
    "raid5": raid5,
    "raid4k": raid4k,
    "rdp": rdp,
    "xcode": xcode,
    "hvpc": hvpc,
    "rm2": rm2,
    "pyramid_8_2_2": pyramid_8_2_2,
    "pyramid_12_2_2": pyramid_12_2_2,
    "azure_lrc": azure_lrc,
    "xorbas_16_10_5": xorbas_16_10_5,
    "was_lrc_6_2_2": was_lrc_6_2_2,
    "pmds_fig": pmds_fig,
    "lsi": lsi,
    "sspiral": sspiral,
    "mds42": mds42,
    "resar_small": resar_small,
    "parity2d": parity2d,
    "parity3d": parity3d,
    "xcode_with_spc": xcode_with_spc,
    "mirrored_org": mirrored_org,
}


def build_code(builder, **params):
    """Build a code by name; raises ValueError for unknown builders."""
    try:
        fn = BUILDERS[builder]
    except KeyError:
        raise ValueError("unknown builder %r" % (builder,))
    return fn(**params)
