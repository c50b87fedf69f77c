"""Builders for the erasure-code constructions and layout fixtures.

Each builder returns a CodeSpec whose encode is consistent (every equation
balances after check computation); builders with free parameters validate
them (primality, divisibility) and raise ValueError otherwise.  The GF(2)
builders state only their parity groups and placement maps, through `_xor`.
"""

from itertools import combinations

from . import gf
from .codes import CodeSpec, recoverable_fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _xor(name, data, groups, column_map=None, row_map=None):
    """A GF(2) code over `data` whose checks each XOR one parity group:
    `groups` maps each check, in order, to the symbols it covers, and the
    check is the last term of its own equation."""
    return CodeSpec(
        name=name,
        field=gf.GF2,
        data_ids=tuple(data),
        check_ids=tuple(groups),
        equations=tuple((c, tuple((s, 1) for s in g) + ((c, 1),))
                        for c, g in groups.items()),
        column_map=column_map,
        row_map=row_map,
    )


def _vandermonde(field, data, checks, points, first=0):
    """One equation per check: check j = sum_i data_i x_i^(first + j) over
    the points x_i, with the check as its last term."""
    return [(c, tuple((d, field.pow(x, first + j))
                      for d, x in zip(data, points)) + ((c, 1),))
            for j, c in enumerate(checks)]


def raid5(n):
    """Single-parity stripe over n disks: P = D_1 xor ... xor D_{n-1}."""
    if n < 3:
        raise ValueError("raid5 needs at least 3 disks")
    data = tuple("d%d" % i for i in range(1, n))
    return _xor("raid5(%d)" % n, data, {"p": data})


def raid4k(n, k, field=gf.GF256):
    """MDS stripe with k checks from Vandermonde rows; MDS verified by
    enumeration at build time for small n."""
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    m = n - k
    # the powers of a primitive element are distinct up to order - 1 of them
    if m > field.order - 1:
        raise ValueError("field too small for %d data symbols" % m)
    data = tuple("d%d" % i for i in range(m))
    checks = tuple("c%d" % j for j in range(k))
    code = CodeSpec(
        name="raid4k(%d,%d)" % (n, k),
        field=field,
        data_ids=data,
        check_ids=checks,
        equations=tuple(_vandermonde(field, data, checks,
                                     field.exp[:m])),
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

    groups = {cell(i, p - 1): [cell(i, j) for j in range(p - 1)]
              for i in range(rows)}
    groups.update((cell(k, p), [cell(i, j) for i in range(rows)
                                for j in range(p) if (i + j) % p == k])
                  for k in range(p - 1))
    cells = [(i, j) for i in range(rows) for j in range(p + 1)]
    return _xor("rdp(%d)" % p,
                [cell(i, j) for i in range(rows) for j in range(p - 1)],
                groups, {cell(i, j): j for i, j in cells},
                {cell(i, j): i for i, j in cells})


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

    groups = {cell(n - 2, i): [cell(k, (i - k - 2) % n) for k in range(n - 2)]
              for i in range(n)}
    groups.update((cell(n - 1, i), [cell(k, (i + k + 2) % n)
                                    for k in range(n - 2)])
                  for i in range(n))
    cells = [(i, j) for i in range(n) for j in range(n)]
    return _xor("xcode(%d)" % n,
                [cell(i, j) for i in range(n - 2) for j in range(n)],
                groups, {cell(i, j): j for i, j in cells},
                {cell(i, j): i for i, j in cells})


def grid_compose(row_factory, col_factory, k1, k2):
    """Compose 1-D stripe codes over the rows and columns of a k1 x k2 grid.

    Each factory(k) gives a code of k data symbols.  The row code runs over
    each data row (its checks become extra columns); the column code then
    runs over every column of the augmented array, including the row-check
    columns, so corner checks satisfy both marginal identities by
    construction.
    """
    row_proto = row_factory(k2)
    row_checks = len(row_proto.check_ids)
    width = k2 + row_checks
    col_proto = col_factory(k1)
    col_checks = len(col_proto.check_ids)

    def cell(i, j):
        return "s%d_%d" % (i, j)

    data = [cell(i, j) for i in range(k1) for j in range(k2)]
    checks = []
    equations = []
    column_map = {cell(i, j): j for i in range(k1 + col_checks)
                  for j in range(width)}
    # an instance of the prototype per line (data row, then column), with
    # the prototype's p-th symbol on the line's p-th cell
    for proto, lines, place in ((row_proto, k1, lambda t, p: cell(t, p)),
                                (col_proto, width, lambda t, p: cell(p, t))):
        for t in range(lines):
            mapping = {s: place(t, p) for p, s in enumerate(proto.symbols)}
            checks += [mapping[s] for s in proto.check_ids]
            equations += [(mapping[cid],
                           tuple((mapping[s], c) for s, c in terms))
                          for cid, terms in proto.equations]
    row_map = {s: int(s[1:].split("_")[0]) for s in data + checks}
    return CodeSpec(
        name="grid(%s,%s,%dx%d)" % (row_proto.name, col_proto.name, k1, k2),
        field=row_proto.field,
        data_ids=tuple(data),
        check_ids=tuple(checks),
        equations=tuple(equations),
        column_map=column_map,
        row_map=row_map,
    )


def spc(n_data):
    """Single parity check stripe (the 1-D building block for grids)."""
    data = tuple("u%d" % i for i in range(n_data))
    return _xor("spc(%d)" % n_data, data, {"v": data})


def hvpc(k1, k2):
    """Horizontal+vertical parity grid with the shared corner parity."""
    code = grid_compose(spc, spc, k1, k2)
    code.name = "hvpc(%d,%d)" % (k1, k2)  # the compiled forms stay valid
    return code


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
    groups = {"P%d" % i: [] for i in range(7)}
    for row, (prefix, pairs) in enumerate((("d", pairs_row1),
                                           ("e", pairs_row2))):
        for col, (a, b) in enumerate(pairs):
            s = "%s%d_%d" % (prefix, min(a, b), max(a, b))
            column_map[s] = col
            row_map[s] = row
            groups["P%d" % a].append(s)
            groups["P%d" % b].append(s)
    data = list(column_map)
    for i in range(7):
        column_map["P%d" % i] = i
        row_map["P%d" % i] = 2
    return _xor("rm2(7,3)", data, groups, column_map, row_map)


def _lrc(name, groups, local_ids, global_ids, split=None):
    """Data-LRC over GF(256): one XOR local parity per data group, then
    global parities sum_i alpha_i^(j+1) d_i over all data, alpha_i = g^i.
    Given `split`, the local parities split that parity of an MDS base code,
    and the code records the base view for two-phase decoding."""
    field = gf.GF256
    data = tuple(d for g in groups for d in g)
    equations = [(local, tuple((d, 1) for d in g) + ((local, 1),))
                 for g, local in zip(groups, local_ids)]
    equations += _vandermonde(field, data, global_ids,
                              field.exp[:len(data)], first=1)
    return CodeSpec(
        name=name,
        field=field,
        data_ids=data,
        check_ids=tuple(local_ids) + tuple(global_ids),
        equations=tuple(equations),
        base_view=split and {
            "virtuals": {split: tuple((l, 1) for l in local_ids)},
            "equations": (tuple((d, 1) for d in data) + ((split, 1),),)
            + tuple(terms for _, terms in equations[len(groups):])},
    )


def pyramid_8_2_2():
    """8 data in two groups of four, 2 local + 2 global parities (the
    12-symbol pyramid built from an 11-symbol MDS code)."""
    g1 = tuple("d%d" % i for i in range(1, 5))
    g2 = tuple("d%d" % i for i in range(5, 9))
    return _lrc("pyramid(8,2,2)", [g1, g2], ("c1_1", "c1_2"), ("c2", "c3"),
                split="p1")


def pyramid_12_2_2():
    """12 data in two groups of six, 2 local + 3 global parities."""
    g1 = tuple("d%d" % i for i in range(1, 7))
    g2 = tuple("d%d" % i for i in range(7, 13))
    return _lrc("pyramid(12,2,2)", [g1, g2], ("c1_1", "c1_2"),
                ("c2", "c3", "c4"), split="p1")


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
    equations = _vandermonde(field, data, parities, xs)
    # local coefficients c_i = sum_j x_i^j align so S1 + S2 + sum_j P_j = 0
    cs = [field.pow(x, 0) ^ field.pow(x, 1) ^ field.pow(x, 2) ^ field.pow(x, 3)
          for x in xs]
    s1_terms = tuple((data[i], cs[i]) for i in range(5)) + (("s1", 1),)
    s2_terms = tuple((data[i], cs[i]) for i in range(5, 10)) + (("s2", 1),)
    equations.append(("s1", s1_terms))
    equations.append(("s2", s2_terms))
    implied = (("s1", 1), ("s2", 1)) + tuple((p, 1) for p in parities)
    return CodeSpec(
        name="xorbas(16,10,5)",
        field=field,
        data_ids=data,
        check_ids=parities + ("s1", "s2"),
        equations=tuple(equations),
        extra_equations=(implied,),
    )


def find_lrc_coefficients(field=gf.GF16):
    """Smallest coefficient pair (alphas, betas) making the two-group LRC
    decode every information-theoretically decodable four-failure pattern.

    All three determinant families must be nonzero for every index choice:
    the 4x4 case (two failures per group), the 3x3 case (one local parity
    down), and the 2x2 case (both local parities down).
    """
    nonzero = [e for e in field.elements() if e]

    def valid(alphas, betas):
        for i, j in combinations(range(3), 2):
            if alphas[i] == alphas[j] or betas[i] == betas[j]:
                return False
        for i, j in combinations(range(3), 2):
            for s, t in combinations(range(3), 2):
                if alphas[i] ^ alphas[j] ^ betas[s] ^ betas[t] == 0:
                    return False
        for i, j in combinations(range(3), 2):
            for s in range(3):
                if betas[s] ^ alphas[i] ^ alphas[j] == 0:
                    return False
                if alphas[s] ^ betas[i] ^ betas[j] == 0:
                    return False
        for a in alphas:
            for b in betas:
                if a == b:
                    return False
        return True

    for alphas in combinations(nonzero, 3):
        for betas in combinations(nonzero, 3):
            if valid(alphas, betas):
                return tuple(alphas), tuple(betas)
    raise RuntimeError("no admissible coefficients in %r" % (field,))


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
    return CodeSpec(
        name="was_lrc(6,2,2)",
        field=field,
        data_ids=xs + ys,
        check_ids=("px", "py", "p0", "p1"),
        equations=tuple(equations),
        column_map={s: i for i, s in enumerate(syms)},
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
    # data and checks alternate round the ring; each check is named by the
    # two data disks it XORs
    syms = ("A", "AB", "B", "BC", "C", "CD", "D", "DA")
    return _xor("lsi(8)", syms[::2], {c: tuple(c) for c in syms[1::2]},
                {s: i for i, s in enumerate(syms)})


def sspiral(n=8):
    """Ring of data disks with three-way XOR parities."""
    if n != 8:
        raise ValueError("sspiral fixture is defined for N=8")
    # each check is named by the data disks it XORs
    return _xor("sspiral(8)", ("A", "B", "C", "D"),
                {c: tuple(c) for c in ("ABC", "BCD", "CDA", "DAB")})


def mds42():
    """Four nodes with two blocks each; two data nodes, two coded nodes."""
    groups = {"c1": ("A1", "B1"), "c2": ("A2", "B2"), "c3": ("A2", "B1"),
              "c4": ("A1", "A2", "B2")}
    column_map = {"A1": 0, "A2": 0, "B1": 1, "B2": 1,
                  "c1": 2, "c2": 2, "c3": 3, "c4": 3}
    return _xor("mds42", ("A1", "A2", "B1", "B2"), groups, column_map)


def resar_small():
    """Small bipartite layout: every data disklet is in one row parity group
    and one (wrapping) diagonal parity group."""
    # disklet (i, j) sits in row i and column j: columns 2..5, 2..3 in row 9
    cells = [(i, j) for i in range(10) for j in range(2, 6 if i < 9 else 4)]

    def cell(i, j):
        return "n%d" % (6 * i + j)

    groups = {"P%d" % r: [cell(i, j) for i, j in cells if i == r]
              for r in range(10)}
    groups.update(("D%d" % t, [cell(i, j) for i, j in cells
                               if (i + j - 2) % 10 == t]) for t in range(10))
    column_map = {cell(i, j): j for i, j in cells}
    # row parities on column 6, diagonal parities on column 0
    column_map.update((c, 6 if c[0] == "P" else 0) for c in groups)
    return _xor("resar_small", [cell(i, j) for i, j in cells], groups,
                column_map)


def parity2d():
    """Ten data disks, five parity groups, each disk in a distinct group
    pair (the complete-pair two-dimensional parity design)."""
    pairs = {
        "D1": (1, 2), "D2": (2, 4), "D3": (1, 3), "D4": (3, 4), "D5": (2, 5),
        "D6": (4, 5), "D7": (3, 5), "D8": (1, 5), "D9": (2, 3), "D10": (1, 4),
    }
    return _xor("parity2d", pairs,
                {"P%d" % g: sorted(d for d, pair in pairs.items() if g in pair)
                 for g in range(1, 6)})


def parity3d():
    """Six data disks, nine pair parity groups; every disk has three
    parities (one vertical, two diagonal)."""
    groups = {
        "P1": ("D1", "D4"), "P2": ("D2", "D5"), "P3": ("D3", "D6"),
        "P4": ("D1", "D3"), "P5": ("D1", "D2"), "P6": ("D2", "D3"),
        "P7": ("D4", "D6"), "P8": ("D4", "D5"), "P9": ("D5", "D6"),
    }
    return _xor("parity3d", ["D%d" % i for i in range(1, 7)], groups)


def xcode_with_spc(p):
    """X-code array protected by one extra single-parity row per column."""
    base = xcode(p)
    # X-code's own groups: each equation less its check, the last term
    groups = {c: [s for s, _ in terms[:-1]] for c, terms in base.equations}
    column_map = dict(base.column_map)
    row_map = dict(base.row_map)
    for j in range(p):
        s = "sp%d" % j
        groups[s] = [sym for sym in base.symbols if base.column_map[sym] == j]
        column_map[s] = j
        row_map[s] = p
    return _xor("xcode_spc(%d)" % p, base.data_ids, groups, column_map,
                row_map)


def mirrored_org(org, n, clusters=2):
    """Column-granularity chunk codes for the mirrored organizations.

    org: "bm" (pairs), "id" (interleaved declustering, `clusters` clusters),
    "grd" (group rotate), "cd" (chained).  Used as enumeration oracles for
    the closed-form survivable-set coefficients.
    """
    # (primary, its column, mirror, its column), one tuple per mirrored chunk
    if org == "bm":
        if n % 2:
            raise ValueError("bm needs even N")
        chunks = [("a%d" % i, 2 * i, "a%d_m" % i, 2 * i + 1)
                  for i in range(n // 2)]
    elif org == "id":
        if n % clusters:
            raise ValueError("id needs c | N")
        per = n // clusters
        chunks = [("p%d_%d" % (i, j), i, "s%d_%d" % (i, j), j)
                  for cl in range(clusters)
                  for i in range(cl * per, (cl + 1) * per)
                  for j in range(cl * per, (cl + 1) * per) if i != j]
    elif org == "grd":
        if n % 2:
            raise ValueError("grd needs even N")
        m = n // 2
        chunks = [("p%d_%d" % (i, r), i, "s%d_%d" % (i, r), m + (i + r) % m)
                  for i in range(m) for r in range(m)]
    elif org == "cd":
        chunks = [("p%d" % i, i, "s%d" % i, (i + 1) % n) for i in range(n)]
    else:
        raise ValueError("unknown mirrored organization %r" % (org,))
    column_map = {}
    for a, col_a, b, col_b in chunks:
        column_map[a] = col_a
        column_map[b] = col_b
    return _xor("%s(%d)" % (org, n), [a for a, _, _, _ in chunks],
                {b: (a,) for a, _, b, _ in chunks}, column_map)


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
