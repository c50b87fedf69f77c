"""Erasure codes as explicit parity-equation systems over small Galois fields.

A code is a set of symbols (data + checks) and a list of equations, each of
which field-sums to zero over the stored symbols.  Recoverability of an
erasure pattern is a rank question on the equation matrix restricted to the
erased columns.

Each CodeSpec compiles its equations once, into the read-only uint8
parity-check matrix `_H` and one support bitmask per row; the field tables
live on `gf.Field`.  An erasure pattern is a bitmask over symbol indices.
Enumerations hand the batched `gf.eliminate` (prefix, last symbols) groups,
no tuple per pattern, and a group shares one elimination of its prefix; a
size whose patterns all erase more symbols than rank(_H) needs none.  A
single pattern is peeled on the row supports first; what is left, the peel
residual, is looked up in the code's verdict memo and, on a miss, goes
through the same kernel as a batch of one, once per residual and code.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import (accumulate, chain, combinations, compress, islice,
                       product)

import numpy as np

from . import gf

DEFAULT_BUDGET = 5_000_000  # rank tests per enumeration call, overridable
# patterns per block where patterns are decided one by one (the local-global
# decoder, sizes above the rank) and read sets per exact repair-plan call
BLOCK = 256
# stack cells (rows x columns x prefixes) per `_verdicts` kernel call, which
# bound an enumeration's working set (`gf.eliminate` makes intp temporaries,
# 8 bytes a cell); a call holds at least one prefix
CELLS = 1 << 14
# peel residuals whose verdict a code keeps; a full memo is emptied at once
MEMO_LIMIT = 1 << 16


class BudgetExceeded(Exception):
    """An enumeration would exceed its rank-test budget."""


class UnrecoverableError(Exception):
    """Requested operation needs a recoverable pattern."""


@dataclass
class CodeSpec:
    """An erasure code: symbols, parity equations, and placement maps."""

    name: str
    field: gf.Field
    data_ids: tuple
    check_ids: tuple
    # equations: tuple of (check_id, ((symbol_id, coeff), ...)); terms sum to 0
    equations: tuple
    # symbol -> column; omitted, every symbol gets its own column in order
    column_map: dict = None
    row_map: dict = None
    group_map: dict = None
    # dependent identities (implied parities) usable for decode/repair but not
    # owned by any check symbol
    extra_equations: tuple = ()
    # optional two-phase decoder description (local peel + base-code solve):
    # {"virtuals": {vid: ((sym, coeff), ...)}, "equations": [((id, coeff), ...)]}
    base_view: dict = None

    def __post_init__(self):
        seen = set()
        for cid, _ in self.equations:
            if cid in seen:
                raise ValueError("check %r owned by two equations" % (cid,))
            seen.add(cid)
        if self.column_map is None:
            self.column_map = {s: i for i, s in enumerate(self.symbols)}
        if set(self.column_map) != set(self.data_ids) | set(self.check_ids):
            raise ValueError("column_map must cover every symbol")
        # the compiled forms every query reads, shared: callers must not
        # mutate them
        self._index = {s: i for i, s in enumerate(self.symbols)}
        # a row per equation (extra equations last), a column per symbol
        rows = [terms for _, terms in self.equations]
        self._H, self._support = _compile(
            rows + list(self.extra_equations), self._index)
        self._column_masks = {}
        for s, col in self.column_map.items():
            self._column_masks[col] = \
                self._column_masks.get(col, 0) | 1 << self._index[s]
        # is_recoverable's verdicts: peel residual mask -> bool
        self._memo = {}
        # rank(_H), set by the first enumeration: no pattern of more symbols
        # is recoverable
        self._rank = None
        # the base view over the symbols followed by its virtual symbols: the
        # matrix, the symbols its rows touch, and (bit, mask of its parts) for
        # each virtual symbol
        self._base = None
        if self.base_view:
            virtuals = self.base_view["virtuals"]
            index = dict(self._index)
            index.update((vid, self.n + i) for i, vid in enumerate(virtuals))
            h, _ = _compile(self.base_view["equations"], index)
            parts = [(1 << index[vid], _expand(self, (s for s, _ in terms),
                                               "symbol"))
                     for vid, terms in virtuals.items()]
            stored = sum(1 << j
                         for j in np.flatnonzero(h.any(axis=0)).tolist())
            self._base = h, stored, parts

    @property
    def symbols(self):
        return tuple(self.data_ids) + tuple(self.check_ids)

    @property
    def k(self):
        return len(self.data_ids)

    @property
    def n(self):
        return len(self.data_ids) + len(self.check_ids)

    def columns(self):
        return sorted(set(self.column_map.values()), key=str)


def _compile(rows, index):
    """The rows of (id, coeff) terms as a read-only uint8 matrix with the
    column `index[id]` for each id, and each row's support, `_H != 0`, as a
    bitmask over those columns."""
    h = np.zeros((len(rows), len(index)), dtype=np.uint8)
    for i, terms in enumerate(rows):
        for s, c in terms:
            if c == 0:
                raise ValueError("zero coefficient on %r" % (s,))
            if s not in index:
                raise ValueError("equation term %r is not a symbol" % (s,))
            h[i, index[s]] = c
    h.flags.writeable = False
    return h, [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in h]


def _bits(mask):
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _names(code, indices):
    """The symbols at `indices`, in str order."""
    symbols = code.symbols
    return tuple(sorted((symbols[j] for j in indices), key=str))


def _expand(code, pattern, granularity):
    """The symbols of the erased `pattern` units, as a bitmask; a unit the
    code does not have is an error."""
    if granularity not in ("symbol", "column"):
        raise ValueError("granularity must be 'symbol' or 'column'")
    erased = 0
    for u in pattern:
        if granularity == "symbol" and u in code._index:
            erased |= 1 << code._index[u]
        elif granularity == "column" and u in code._column_masks:
            erased |= code._column_masks[u]
        else:
            raise ValueError("code %s has no %s %r"
                             % (code.name, granularity, u))
    return erased


def _peel(support, erased):
    """The `erased` mask left after repeatedly solving every row, given by
    its `support` mask, that has a single erased member."""
    rows = [r for r in support if r & erased]
    while erased:
        solo = 0
        for r in rows:
            t = r & erased
            if not t & (t - 1):  # one bit set, or none
                solo |= t
        if not solo:
            break
        erased ^= solo
    return erased


def _solvable(field, h, support, erased):
    """True iff the `erased` symbols are determined by the rows of `h`, whose
    supports are `support`.

    Peels rows with a single erased member first (cheap and it is how most
    local repairs resolve), then falls back to a joint rank test, which
    fewer rows touching the residual than it has symbols cannot pass.
    """
    erased = _peel(support, erased)
    if not erased:
        return True
    rows = [i for i, r in enumerate(support) if r & erased]
    cols = _bits(erased)
    return len(rows) >= len(cols) and \
        gf.rank(field, h[rows][:, cols]) == len(cols)


def is_recoverable(code, erasures, granularity="symbol"):
    """True iff the erased symbols are uniquely determined by the survivors.

    The pattern is peeled on the row supports; an empty residual is
    recoverable.  Otherwise the verdict on the residual mask is read from
    the code's memo, or decided by `_solvable` and stored there.  Each
    peeled symbol is solved from symbols already known, so a pattern is
    recoverable iff its residual is, and patterns with one residual share
    one entry.  The memo is sound because `_H` and `_support` are compiled
    once and read-only; it holds at most MEMO_LIMIT residuals and is emptied
    when full.  Every call still checks its units and granularity.
    """
    erased = _peel(code._support, _expand(code, erasures, granularity))
    if not erased:
        return True
    memo = code._memo
    verdict = memo.get(erased)
    if verdict is None:
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        verdict = memo[erased] = _solvable(code.field, code._H,
                                           code._support, erased)
    return verdict


def _local_global(code, masks):
    """Two-phase decode of each erased mask, as a list of bools: peel, solve
    the base view (a virtual symbol is erased while any of its parts is) and
    peel what is left.  The base view recovers every erased symbol it
    touches, so one kernel call holds the masks' only rank tests."""
    base, stored, virtuals = code._base
    h = np.zeros((len(base), base.shape[1] + 1), dtype=np.uint8)
    h[:, :-1] = base  # the zero column pads short prefixes
    out, tests, groups = [], [], []
    for i, erased in enumerate(masks):
        erased = _peel(code._support, erased)
        recovered = erased & stored
        out.append(not erased)
        if recovered:
            cols = _bits(recovered | sum(bit for bit, parts in virtuals
                                         if erased & parts))
            tests.append((i, erased ^ recovered))
            groups.append((tuple(cols[:-1]), cols[-1:]))
    if tests:
        ok = _prefix_verdicts(code.field, h, groups,
                              max(len(g[0]) for g in groups), 1)
        for (i, rest), good in zip(tests, ok):
            out[i] = good and not _peel(code._support, rest)
    return out


def _verdicts(code, groups):
    """Recoverability of the patterns of the (prefix, lasts) groups, a
    prefix of symbol indices and one last index each, as a list of bools per
    kernel call: full column rank of `_H` on each, in group order.

    A group's prefix is eliminated once, Gauss-Jordan, with the columns of
    `_H` that its lasts name carried along.  Row operations keep the rank of
    the prefix and map each carried column to an image x; the rows left
    without a pivot are exactly the rows zero on every prefix column, and
    adding x raises the rank iff x is nonzero on one of them.  So a pattern
    is recoverable iff its prefix has full column rank and the image of its
    last column is nonzero on a row without a pivot.  Shorter prefixes are
    padded with an all-zero column, which gets no pivot.  Each prefix
    carries every column of `_H`, except in a block where every group has
    one pattern: there each carries its own last column.  A call stacks
    prefixes while rows x (width + carried columns) x prefixes <= CELLS.
    """
    rows, n = code._H.shape
    h = np.zeros((rows, n + 1), dtype=np.uint8)  # column n stays zero
    h[:, :n] = code._H
    block, width, carry = [], 0, 1
    for prefix, lasts in groups:
        need = n if len(lasts) > 1 else 1
        w, c = max(width, len(prefix)), max(carry, need)
        if block and rows * (w + c) * (len(block) + 1) > CELLS:
            yield _prefix_verdicts(code.field, h, block, width, carry)
            block, w, c = [], len(prefix), need
        block.append((prefix, lasts))
        width, carry = w, c
    if block:
        yield _prefix_verdicts(code.field, h, block, width, carry)


def _groups(head, flat, f):
    """The patterns `head` + c, c the f-combinations of the list `flat`, as
    (prefix, lasts) groups, one per (f - 1)-combination, in their order."""
    if f == 1:
        return [(head, flat)] if flat else []
    tail = {x: flat[i + 1:] for i, x in enumerate(flat)}
    return ((head + c, tail[c[-1]]) for c in combinations(flat[:-1], f - 1))


def _prefix_verdicts(field, h, block, width, carry):
    """The verdicts on the groups of `block`, in order, by one call of
    `gf.eliminate` on `width` padded prefix columns and `carry` carried ones
    a prefix (every column of `h` but its zero last one, or its own last)."""
    rows, n = h.shape[0], h.shape[1] - 1
    every = carry == n
    idx = []
    for prefix, lasts in block:
        idx += (*prefix, *[n] * (width - len(prefix)))
        if not every:
            idx += lasts
    cols = np.array(idx, dtype=np.intp).reshape(len(block), -1)
    m = np.empty((rows, width + carry, len(block)), dtype=np.uint8)
    m[:, :cols.shape[1]] = h[:, cols.T]
    if every:
        m[:, width:] = h[:, :n, None]
    ranks = gf.eliminate(field, m, width).tolist()
    free = ~m[:, :width].any(axis=1)
    ok = ((m[:, width:] != 0) & free[:, None]).any(axis=0).T.tolist()
    out = []
    for (prefix, lasts), row, rank in zip(block, ok, ranks):
        if rank < len(prefix):
            out += [False] * len(lasts)
        else:
            out += map(row.__getitem__, lasts) if every else row
    return out


def _walk(code, granularity, budget, decoder="joint", size=None):
    """Verdicts on the erasure patterns of `size` units, or of every size
    from 1 up when size is None: yields (size, total, verdicts) per size.

    verdicts yields the size's verdicts lazily, as lists of bools over
    blocks of patterns in combinations order, and is charged to the rank-test
    budget when first read, so a size that the caller skips or abandons
    costs nothing.  Under the joint decoder, a size whose fewest erased
    symbols exceed rank(_H) is all False, in blocks of BLOCK and with no
    kernel call.
    """
    if granularity not in ("symbol", "column"):
        raise ValueError("granularity must be 'symbol' or 'column'")
    if decoder not in ("joint", "local-global"):
        raise ValueError("unknown decoder %r" % (decoder,))
    if decoder == "local-global" and not code.base_view:
        raise ValueError("code %s has no base view" % code.name)
    units = code.columns() if granularity == "column" else list(code.symbols)
    if size is not None and not 1 <= size <= len(units):
        raise ValueError("f=%d is outside 1..%d, the %s count of code %s"
                         % (size, len(units), granularity, code.name))
    masks = [_expand(code, [u], granularity) for u in units]
    parts = [tuple(_bits(m)) for m in masks]
    flat = [p[0] for p in parts] if all(len(p) == 1 for p in parts) else None
    # fewest[f]: the fewest symbols that f units erase
    fewest = list(accumulate(sorted(map(len, parts)), initial=0))
    if code._rank is None:
        code._rank = gf.rank(code.field, code._H)
    spent = 0

    def verdicts(f):
        nonlocal spent
        total = math.comb(len(units), f)
        spent += total
        if spent > budget:
            raise BudgetExceeded("%d patterns exceed the budget of %d"
                                 % (spent, budget))
        if decoder == "joint" and fewest[f] > code._rank:
            for start in range(0, total, BLOCK):
                yield [False] * min(BLOCK, total - start)
        elif decoder == "joint" and flat:
            yield from _verdicts(code, _groups((), flat, f))
        elif decoder == "joint":  # units of several symbols share no prefix
            yield from _verdicts(code, ((s[:-1], s[-1:]) for s in (
                tuple([j for u in p for j in u])
                for p in combinations(parts, f))))
        else:  # the units' masks are disjoint: their sum is their union
            patterns = combinations(masks, f)
            while block := list(islice(patterns, BLOCK)):
                yield _local_global(code, list(map(sum, block)))

    for f in range(1, len(units) + 1) if size is None else (size,):
        yield f, math.comb(len(units), f), verdicts(f)


def erasure_tolerance(code, granularity="symbol", budget=DEFAULT_BUDGET):
    """Largest t such that every erasure pattern of size t is recoverable."""
    t = 0
    for size, _, verdicts in _walk(code, granularity, budget):
        if not all(map(all, verdicts)):
            break
        t = size
    return t


def recoverable_fraction(code, f, granularity="symbol", decoder="joint",
                         budget=DEFAULT_BUDGET):
    """Fraction of size-f erasure patterns that are recoverable.

    decoder="joint" uses full linear decoding; "local-global" uses the
    two-phase decoder recorded in the code's base view (local parities first,
    then the base code), which is how split-parity codes are actually run.
    Returns (fraction, exact Fraction, (recoverable, total)).
    """
    (_, total, verdicts), = _walk(code, granularity, budget, decoder, f)
    good = sum(map(sum, verdicts))
    frac = Fraction(good, total)
    return float(frac), frac, (good, total)


def loss_coefficients(code, granularity="symbol", budget=DEFAULT_BUDGET):
    """A[i] = number of i-failure sets NOT causing data loss, i = 0..n."""
    coeffs = [1]
    for _, _, verdicts in _walk(code, granularity, budget):
        # supersets of fatal patterns are fatal: past a dead size, no tests
        coeffs.append(sum(map(sum, verdicts)) if coeffs[-1] else 0)
    return coeffs


def recoverable_sets(code, granularity="symbol", budget=DEFAULT_BUDGET):
    """Every recoverable set of failed units as a bitmask over the indices
    of `code.columns()` or `code.symbols`, by size from the empty set up.
    Subsets of recoverable sets are recoverable, so the walk stops at the
    first size without one; over the budget, it raises BudgetExceeded."""
    units = len(code._column_masks) if granularity == "column" else code.n
    masks = [0]
    for size, _, verdicts in _walk(code, granularity, budget):
        found = [sum(1 << u for u in c) for c in compress(
            combinations(range(units), size), chain.from_iterable(verdicts))]
        if not found:
            break
        masks += found
    return masks


def classify_array_code(code, n, m, r, s, budget=DEFAULT_BUDGET):
    """Classify as PMDS, SD or neither.

    PMDS: any m erased blocks per row plus any s more anywhere are
    recoverable.  SD: any m whole columns plus any s more sectors.  The PMDS
    property implies SD; both are decided by exhaustive enumeration.
    """
    if m + s < 1:
        raise ValueError("m + s must be at least 1, not %d" % (m + s))
    rows_of = {}
    for sym, rr in (code.row_map or {}).items():
        rows_of.setdefault(rr, []).append(sym)
    if len(rows_of) != r:
        raise ValueError("row_map has %d rows, expected %d" % (len(rows_of), r))
    cols = code.columns()
    if len(cols) != n:
        raise ValueError("expected %d columns" % n)
    row_choices = [list(combinations(sorted(rows_of[rr], key=str), m))
                   for rr in sorted(rows_of)]
    # each property: its test count and the erased masks it adds s extras to
    checks = {
        "SD": (math.comb(n, m) * math.comb(r * (n - m), s),
               (_expand(code, colset, "column")
                for colset in combinations(cols, m))),
        "PMDS": (math.prod(map(len, row_choices)) * math.comb(r * (n - m), s),
                 (_expand(code, chain(*picks), "symbol")
                  for picks in product(*row_choices))),
    }
    # the extras are drawn from the symbols in str order
    names = list(map(str, code.symbols))
    by_str = sorted(range(code.n), key=names.__getitem__)

    def groups(bases):  # with s = 0, each base is its own group
        for base in bases:
            b = tuple(_bits(base))
            rest = [j for j in by_str if not base >> j & 1]
            yield from _groups(b, rest, s) if s else [(b[:-1], b[-1:])]

    holds = {}
    for name, (tests, bases) in checks.items():
        if tests > budget:
            raise BudgetExceeded("%s check needs %d tests" % (name, tests))
        holds[name] = all(map(all, _verdicts(code, groups(bases))))
    if holds["PMDS"] and not holds["SD"]:
        raise AssertionError("PMDS without SD; enumeration is inconsistent")
    if holds["PMDS"]:
        return "PMDS"
    if holds["SD"]:
        return "SD"
    return "neither"


@dataclass
class RepairPlan:
    reads: tuple
    equations_used: tuple
    optimal: bool

    @property
    def symbols_read(self):
        return len(self.reads)


def repair_plan(code, erasures, granularity="symbol", exact_limit=1 << 16):
    """Minimum-read repair: a read set whose equations determine the erasures.

    Searches subsets of parity equations exactly when that is affordable,
    otherwise falls back to a greedy cover (flagged non-optimal).
    """
    erased = _expand(code, erasures, granularity)
    h, support = code._H, code._support
    if not _solvable(code.field, h, support, erased):
        raise UnrecoverableError("pattern %r is not recoverable" % (erasures,))
    relevant = [i for i, r in enumerate(support) if r & erased]
    if 2 ** len(relevant) <= exact_limit:
        return _exact_plan(code, erased, relevant)
    # greedy: add the equation that buys the most progress per new read,
    # the first such in row order
    chosen, touched = [], 0
    while not _solvable(code.field, h[chosen], [support[i] for i in chosen],
                        erased):
        scored = [((support[i] & ~(erased | touched)).bit_count(),
                   -(support[i] & erased).bit_count(), i)
                  for i in relevant if i not in chosen]
        if not scored:
            raise UnrecoverableError("greedy repair failed")
        chosen.append(min(scored)[2])
        touched |= support[chosen[-1]]
    return RepairPlan(_names(code, _bits(touched & ~erased)), tuple(chosen),
                      False)


def _exact_plan(code, erased, relevant):
    """The first plan, in ascending subset-mask order, with the fewest reads
    among the subsets of the `relevant` equations that determine `erased`:
    H[relevant, E] times each subset's 0/1 row selection, BLOCK at a time."""
    cols = _bits(erased)
    h = code._H[relevant]
    support = h != 0
    support[:, cols] = False
    mul, _ = code.field.tables
    # read right to left, product counts the masks up from 0 (skipped)
    subsets = islice(product((0, 1), repeat=len(relevant)), 1, None)
    best = None
    while block := list(islice(subsets, BLOCK)):
        sel = np.array(block, dtype=np.uint8)[:, ::-1]
        ranks = gf.eliminate(code.field,
                             mul[h[:, cols, None], sel.T[:, None]], len(cols))
        reads = (sel.view(bool)[:, :, None] & support).any(axis=1)
        counts = reads.sum(axis=1).tolist()
        for rank, count, r, chosen in zip(ranks.tolist(), counts, reads, sel):
            if rank == len(cols) and (best is None or count < best[0]):
                best = count, r, chosen
    _, reads, chosen = best
    return RepairPlan(_names(code, np.flatnonzero(reads)),
                      tuple(i for i, c in zip(relevant, chosen) if c), True)


def verify_plan(code, erasures, reads, granularity="symbol"):
    """Check that reading `reads` suffices to recover `erasures`.

    The erased values are determined by the read set alone iff adding every
    unread survivor as an extra unknown does not blur them:
    rank(H[:, E + U]) == |E| + rank(H[:, U]).
    """
    erased = _expand(code, erasures, granularity)
    unread = ((1 << code.n) - 1) & ~erased & ~_expand(code, reads, "symbol")
    h = code._H
    lhs = gf.rank(code.field, h[:, _bits(erased | unread)])
    return lhs == erased.bit_count() + gf.rank(code.field, h[:, _bits(unread)])


def repair_metrics(code, budget=DEFAULT_BUDGET):
    """Per-symbol repair costs: ARC, NRC, ADRC, DRC and pairwise ARC2."""
    costs = {}
    for s in code.symbols:
        plan = repair_plan(code, [s])
        costs[s] = plan.symbols_read
    n = code.n
    k = code.k
    arc = sum(costs.values()) / n
    adrc = sum(costs[s] for s in code.data_ids) / k
    pair_total = 0
    pairs = list(combinations(code.symbols, 2))
    if len(pairs) > budget:
        raise BudgetExceeded("ARC2 needs %d plans" % len(pairs))
    arc2 = None
    try:
        for a, b in pairs:
            pair_total += repair_plan(code, [a, b]).symbols_read
        arc2 = pair_total / len(pairs)
    except UnrecoverableError:
        pass  # single-fault-tolerant codes have no two-erasure cost
    return {
        "ARC": arc,
        "NRC": arc * n / k,
        "ADRC": adrc,
        "DRC": adrc,
        "ARC2": arc2,
        "per_symbol": costs,
    }


def encode_xor_count(code):
    """XOR operations for a full-stripe encode (binary codes only)."""
    if code.field.w != 1:
        raise ValueError("XOR counting applies to binary-field codes")
    total = 0
    for _, terms in code.equations:
        total += len(terms) - 2  # one term is the check itself
    return total


def encode(code, data_values, rng=None):
    """Encode: assign data values, solve every check, return {sym: value}.

    With rng given, data_values may be None and random field elements are
    drawn.  Raises if the equation system does not determine the checks.
    """
    if data_values is None:
        data_values = {s: rng.integers(0, code.field.order)
                       for s in code.data_ids}
    # every symbol without a value is an unknown: the checks, and any data
    # left out, which leaves the system underdetermined
    unknown = sum(1 << j for s, j in code._index.items()
                  if s not in data_values)
    solved = _solve(code, unknown, data_values)
    if solved is None:
        raise ValueError("encode system does not determine the checks")
    return {**data_values, **solved}


def _solve(code, unknown, values):
    """{symbol: value} of the `unknown` symbols (a mask), solved from the
    `values` of the others through the code's own equations; None unless
    the equations determine them."""
    h = code._H[:len(code.equations)]
    if not len(h):  # solve reads the unknowns off the rows
        return None
    cols = _bits(unknown)
    known = _bits(((1 << code.n) - 1) & ~unknown)
    symbols = code.symbols
    missing = [symbols[j] for j in known if symbols[j] not in values]
    if missing:
        raise ValueError("no value given for the surviving symbols %s"
                         % ", ".join(map(str, missing)))
    x = np.array([values[symbols[j]] for j in known], dtype=np.uint8)
    # the known terms move right: in characteristic 2, with the same sign
    mul, _ = code.field.tables
    rhs = np.bitwise_xor.reduce(mul[h[:, known], x], axis=1)
    sol = gf.solve(code.field, h[:, cols], [rhs])
    return None if sol is None else \
        dict(zip((symbols[j] for j in cols), sol[0]))


def decode(code, values, erased):
    """Solve the erased symbols from surviving values; None if not possible."""
    return _solve(code, _expand(code, erased, "symbol"), values)


def mds_update_cost(r, m, k):
    """Reference lower bound on the single-bit update cost of an MDS
    m x n array code with k data and r check columns.

    r=2: 2 + (1/m)(1 - 1/k);  r=3: 3 + (3/m)(2/3 - 1/k).
    """
    if r == 2:
        return 2.0 + (1.0 - 1.0 / k) / m
    if r == 3:
        return 3.0 + 3.0 / m * (2.0 / 3.0 - 1.0 / k)
    raise ValueError("bound is stated for r in {2, 3}")


def to_json(code):
    """CodeSpec as a plain JSON document (fixtures are data, not code)."""
    return {
        "name": code.name,
        "field_bits": code.field.w,
        "data_ids": list(code.data_ids),
        "check_ids": list(code.check_ids),
        "equations": [[cid, [[s, c] for s, c in terms]]
                      for cid, terms in code.equations],
        "extra_equations": [[[s, c] for s, c in terms]
                            for terms in code.extra_equations],
        "column_map": {str(s): code.column_map[s] for s in code.symbols},
        "row_map": None if code.row_map is None else
                   {str(s): code.row_map[s] for s in code.row_map},
        "group_map": None if code.group_map is None else
                     {str(s): code.group_map[s] for s in code.group_map},
    }


def from_json(doc):
    """Rebuild a CodeSpec from its JSON form (symbol ids become strings)."""
    field = gf.Field(doc["field_bits"])
    data_ids = tuple(doc["data_ids"])
    check_ids = tuple(doc["check_ids"])
    equations = tuple(
        (cid, tuple((s, int(c)) for s, c in terms))
        for cid, terms in doc["equations"])
    extra = tuple(tuple((s, int(c)) for s, c in terms)
                  for terms in doc.get("extra_equations", []))
    return CodeSpec(
        name=doc.get("name", "inline"),
        field=field,
        data_ids=data_ids,
        check_ids=check_ids,
        equations=equations,
        extra_equations=extra,
        column_map=dict(doc["column_map"]),
        row_map=doc.get("row_map"),
        group_map=doc.get("group_map"),
    )

