"""Erasure codes as explicit parity-equation systems over small Galois fields.

A code is a set of symbols (data + checks) and a list of equations, each of
which field-sums to zero over the stored symbols.  Recoverability of an
erasure pattern is a rank question on the equation matrix restricted to the
erased columns.

Each CodeSpec compiles its equations once, into the read-only uint8
parity-check matrix `_H` and one support bitmask per row; the field tables
live on `gf.Field`.  An erasure pattern is a bitmask over symbol indices.
Enumerations walk a tree of reduced matrices, `_tree`: a node holds `_H`
reduced on a prefix of units, and a child takes a `gf.pivot` step per
symbol of its unit from its parent's state, so each prefix is reduced once;
a size whose patterns all erase more symbols than rank(_H) needs no kernel
call.  A single pattern is peeled on the row supports first; what is left,
the peel residual, is looked up in the code's verdict memo and, on a miss,
goes through `gf.eliminate` as a batch of one, once per residual and code.
Repair planning, `_plans`, ranks every subset of each erasure mask's
relevant equations, with the masks of one shape stacked into one batch, and
takes each mask's fewest reads in numpy.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, islice

import numpy as np

from . import gf

DEFAULT_BUDGET = 5_000_000  # rank tests per enumeration call, overridable
# patterns per block where patterns are decided one by one (the local-global
# decoder) or need no decision (sizes above the rank, dead prefixes)
BLOCK = 256
# stack cells (rows x columns x matrices) per kernel call of an enumeration,
# a pivot step or an elimination, which bound its working set (a step makes
# temporaries of up to 2 bytes a cell); a call holds at least one matrix
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
    out, tests, colsets = [], [], []
    for i, erased in enumerate(masks):
        erased = _peel(code._support, erased)
        recovered = erased & stored
        out.append(not erased)
        if recovered:
            tests.append((i, erased ^ recovered))
            colsets.append(_bits(recovered | sum(
                bit for bit, parts in virtuals if erased & parts)))
    if tests:
        # a short column set repeats its first column, which adds no rank
        width = max(map(len, colsets))
        idx = np.array([c + c[:1] * (width - len(c)) for c in colsets])
        ranks = gf.eliminate(code.field, base[:, idx.T], width).tolist()
        for (i, rest), rank, c in zip(tests, ranks, colsets):
            out[i] = rank == len(c) and not _peel(code._support, rest)
    return out


def _tree(code, levels, order=None, s=0):
    """Verdicts, as lists of bools, on the patterns that `levels` and `s`
    extras spell, in their order, read off a tree of reduced matrices.

    Level d picks a unit, a row of its table, past the previous level's
    pick unless the level is fresh; each extra then picks a symbol no level
    picked, past the previous extra in `order`.  A node holds `_H` reduced
    on its units, and only the rows without a pivot decide its descendants.
    A child takes a `gf.pivot` step per symbol of its unit from its parent's
    state; one symbol raises the rank iff its column is nonzero on such a
    row, which the parent shows, so a last unit of one symbol takes no step,
    and two last ones from one list are read off their grandparent: they
    raise it by two iff neither column is zero or a multiple of the other.
    A child short of a pivot is not extended: its patterns are all False.
    Levels are built in chunks of CELLS cells, depth first, in order."""
    rows, n = code._H.shape
    spec = levels + [(None, not i) for i in range(s)]
    extras = n - sum(int((t[:1] < n).sum()) for t, _ in levels)
    # below[d][p]: the patterns below the level-d picks p and later
    sizes = [extras if t is None else len(t) for t, _ in spec]
    below, ways = [], [1] * sizes[-1]
    for d in range(len(spec) - 1, -1, -1):  # Python ints: int64 or raise
        sums = list(accumulate(reversed(ways), initial=0))[::-1]
        below.insert(0, np.array(sums, dtype=np.int64))
        ways = [sums[0]] * sizes[d - 1] if spec[d][1] else sums[1:]
    done = 0  # the verdicts yielded

    def emit(at, verdicts):
        # the verdicts of the patterns at the ascending indices `at`; the
        # False verdicts of dead prefixes fill the gaps, a gap of more than
        # BLOCK in blocks of its own
        nonlocal done
        cuts = ((at[1:] - at[:-1]) > BLOCK + 1).nonzero()[0] + 1
        for a, b in zip([0, *cuts], [*cuts, len(at)]) if len(at) else ():
            yield from _falses(int(at[a]) - done)
            out = np.zeros(at[b - 1] + 1 - at[a], dtype=bool)
            out[at[a:b] - at[a]] = verdicts[a:b]
            done = int(at[b - 1]) + 1
            yield out.tolist()

    def grow(m, cur, aux, d, start):
        # the children of the level-d nodes of a chunk, whose first
        # patterns are the start-th; m holds the free rows of each node's
        # state, aux each node's picked symbols, or the extras it picks from
        table, fresh = spec[d]
        if table is None and d == len(levels):
            aux = np.broadcast_to(order, aux[:, order].shape)[
                ~aux[:, order]].reshape(len(aux), -1)
        after = below[d]
        first = np.zeros_like(cur) if fresh else cur + 1
        nodes, picks = np.arange(len(m))[:, None], np.arange(len(after) - 1)
        valid = (after[:-1] > after[1:]) & (picks >= first[:, None])
        last = d + 1 == len(spec)
        single = table is None or table.shape[1] == 1
        if single:  # a unit's image: nonzero on a free row
            img = (m != 0).any(axis=1)
            img = img[:, table[:, 0]] if table is not None else img[nodes, aux]
            ok = valid & img
        if single and d + 2 == len(spec) and spec[d + 1][0] is table and \
                not spec[d + 1][1] and len(m[0]):
            # the last two units, one symbol each from one list: a pair is
            # recoverable iff both images are nonzero and not proportional,
            # so each image is scaled to lead with 1, and they are compared,
            # for as many nodes as CELLS pairs
            v = m[:, :, table[:, 0]] if table is not None else \
                m[nodes, :, aux].transpose(0, 2, 1)
            times, scale = code.field.kernel
            lead = v[nodes, (v != 0).argmax(axis=1), picks]
            v = times(scale[1][lead][:, None], v)
            step = max(1, CELLS // max(1, len(picks)) ** 2)
            for lo in range(0, len(m), step):
                i = slice(lo, lo + step)
                same = np.ones(img[i].shape + picks.shape, dtype=bool)
                for row in v[i].transpose(1, 0, 2):
                    same &= row[:, :, None] == row[:, None, :]
                pairs = valid[i, :, None] & (picks[:, None] < picks)
                counts = pairs.sum(axis=(1, 2))
                yield from emit(
                    np.repeat(start[i] - np.cumsum(counts) + counts, counts)
                    + np.arange(counts.sum()),
                    (img[i, :, None] & img[i, None] & ~same)[pairs])
            return
        par, q = (ok if single and not last else valid).nonzero()
        cols = aux[par, q][:, None] if table is None else table[q]
        at = start[par] + after[first[par]] - after[q]
        verdicts = ok[par, q] if single else np.zeros(len(par), dtype=bool)
        cap = max(1, CELLS // max(1, m[0].size))
        for lo in range(0, 0 if single and last else len(par), cap):
            take = np.arange(lo, min(lo + cap, len(par)))
            mc = m[par[take]]
            fc = np.ones(mc.shape[:2], dtype=bool)  # the free rows
            gained = sum(gf.pivot(code.field, mc.transpose(1, 2, 0),
                                  cols[take, k], fc.T)
                         for k in range(cols.shape[1]))
            if not single:
                good = verdicts[take] = gained == (cols[take] < n).sum(axis=1)
                take, mc, fc = take[good], mc[good], fc[good]
            if len(take) and not last:
                # rows with a pivot no longer change a verdict: zero them,
                # and drop them where every node has as many
                mc[~fc] = 0
                if (fc.sum(axis=1) == fc[0].sum()).all():
                    mc = mc[fc].reshape(len(take), -1, mc.shape[2])
                sub = None if aux is None else aux[par[take]]
                if table is not None and sub is not None:
                    sub[np.arange(len(take))[:, None], cols[take]] = True
                yield from grow(mc, q[take], sub, d + 1, at[take])
        if last:
            yield from emit(at, verdicts)

    h = np.zeros((1, rows, n + 1), dtype=np.uint8)  # column n stays 0
    h[0, :, :n] = code._H
    yield from grow(h, np.array([-1]), np.zeros((1, n + 1), dtype=bool)
                    if s else None, 0, np.zeros(1, dtype=np.int64))
    yield from _falses(int(below[0][0]) - done)


def _table(n, units, width):
    """A `_tree` level table: a row of symbol indices per unit, padded to
    `width` with the zero column n."""
    return np.array([[*u] + [n] * (width - len(u)) for u in units],
                    dtype=np.intp).reshape(len(units), width)


def _falses(count):
    """`count` False verdicts, in blocks of BLOCK."""
    for start in range(0, count, BLOCK):
        yield [False] * min(BLOCK, count - start)


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
    parts = [_bits(m) for m in masks]
    table = _table(code.n, parts, max(map(len, parts)))
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
            yield from _falses(total)
        elif decoder == "joint":
            yield from _tree(code, [(table, False)] * f)
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


def classify_array_code(code, n, m, r, s):
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
    # the extras are drawn from the symbols in str order
    names = list(map(str, code.symbols))
    by_str = np.array(sorted(range(code.n), key=names.__getitem__))
    columns = [_bits(_expand(code, [c], "column")) for c in cols]
    if any(len(c) != r for c in columns):
        raise ValueError("expected %d symbols in each column" % r)
    rows = [_table(code.n, list(combinations(sorted(
        (code._index[x] for x in rows_of[rr]), key=names.__getitem__), m)),
        m) for rr in sorted(rows_of)]
    # each property: its test count and the levels that pick its bases
    checks = {
        "SD": (math.comb(n, m) * math.comb(r * (n - m), s),
               [(_table(code.n, columns, r), False)] * m),
        "PMDS": (math.prod(map(len, rows)) * math.comb(r * (n - m), s),
                 [(t, True) for t in rows if t.shape[1]]),
    }
    holds = {}
    for name, (tests, levels) in checks.items():
        if tests > DEFAULT_BUDGET:
            raise BudgetExceeded("%s check needs %d tests" % (name, tests))
        holds[name] = all(map(all, _tree(code, levels, by_str, s)))
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
    plan, = _plans(code, [_expand(code, erasures, granularity)], exact_limit)
    if plan is None:
        raise UnrecoverableError("pattern %r is not recoverable" % (erasures,))
    return plan


def _plans(code, masks, exact_limit):
    """The repair plan of each erased symbol mask, or None where the mask is
    unrecoverable.

    A mask whose r relevant equations (those touching it) have at most
    `exact_limit` subsets is planned exactly: the first subset, in ascending
    subset-mask order, with the fewest reads among those whose rows have
    rank |E| on the erased columns E.  Masks of one r and one |E| form a
    group: H[relevant, E] times the 0/1 row selection of every subset, for
    every mask of the group, is one stack, ranked in chunks of CELLS cells
    of one shape (the last chunk padded).  A mask is recoverable iff its
    full subset ranks |E|; none is, without a relevant equation, unless E
    is empty and needs no repair.  Larger masks take the greedy cover."""
    support, plans, groups = code._support, [None] * len(masks), {}
    for i, erased in enumerate(masks):
        relevant = [j for j, r in enumerate(support) if r & erased]
        if 2 ** len(relevant) > exact_limit:
            plans[i] = _greedy_plan(code, erased, relevant)
        elif not erased:  # nothing to repair: no reads, no equations
            plans[i] = RepairPlan((), (), True)
        elif relevant:
            groups.setdefault((len(relevant), erased.bit_count()), []).append(
                (i, relevant, _bits(erased)))
    for (r, c), members in groups.items():
        at, relevant, cols = zip(*members)
        rows, cols = code._H[np.array(relevant)], np.array(cols)[:, None]
        a = np.take_along_axis(rows, cols, 2).transpose(1, 2, 0)
        # subset j is mask j + 1: it selects row i iff bit i is set, and it
        # reads a symbol off E iff it selects a row that touches the symbol
        subsets = np.arange(1, 1 << r, dtype=np.min_scalar_type(1 << r))
        sel = (subsets[:, None] >> np.arange(r) & 1).astype(np.uint8)
        read = rows != 0
        np.put_along_axis(read, cols, False, 2)
        touch = (read << np.arange(r)[:, None]).sum(1, dtype=subsets.dtype)
        # the reads of every (plan, subset), or n + 1 short of rank |E|, in
        # chunks along that axis, the last one padded from its start
        total = len(at) * len(sel)
        step = min(total, max(1, CELLS // (r * c)))
        reads = np.empty(total + step, dtype=np.min_scalar_type(code.n + 1))
        for lo in range(0, total, step):
            p, j = np.divmod(np.arange(lo, lo + step) % total, len(sel))
            ranks = gf.eliminate(code.field, a[:, :, p] * sel.T[:, None, j], c)
            reads[lo:lo + step] = np.where(ranks == c, np.count_nonzero(
                touch[p] & subsets[j, None], 1), code.n + 1)
        reads = reads[:total].reshape(len(at), -1)
        for g, j in enumerate(reads.argmin(1).tolist()):  # first of fewest
            if reads[g, -1] <= code.n:
                plans[at[g]] = RepairPlan(
                    _names(code, np.flatnonzero(touch[g] & subsets[j])),
                    tuple(compress(relevant[g], sel[j])), True)
    return plans


def _greedy_plan(code, erased, relevant):
    """A greedy cover of the `erased` mask by its `relevant` equations: add
    the equation that buys the most progress per new read, the first such in
    row order; None once every equation is in and the mask is still not
    determined."""
    h, support = code._H, code._support
    chosen, touched = [], 0
    while not _solvable(code.field, h[chosen], [support[i] for i in chosen],
                        erased):
        scored = [((support[i] & ~(erased | touched)).bit_count(),
                   -(support[i] & erased).bit_count(), i)
                  for i in relevant if i not in chosen]
        if not scored:
            return None
        chosen.append(min(scored)[2])
        touched |= support[chosen[-1]]
    return RepairPlan(_names(code, _bits(touched & ~erased)), tuple(chosen),
                      False)


def verify_plan(code, erasures, reads):
    """Check that reading `reads` suffices to recover `erasures`.

    The erased values are determined by the read set alone iff adding every
    unread survivor as an extra unknown does not blur them:
    rank(H[:, E + U]) == |E| + rank(H[:, U]).
    """
    erased = _expand(code, erasures, "symbol")
    unread = ((1 << code.n) - 1) & ~erased & ~_expand(code, reads, "symbol")
    h = code._H
    lhs = gf.rank(code.field, h[:, _bits(erased | unread)])
    return lhs == erased.bit_count() + gf.rank(code.field, h[:, _bits(unread)])


def repair_metrics(code, budget=DEFAULT_BUDGET):
    """Per-symbol repair costs: ARC, NRC, ADRC, DRC and pairwise ARC2."""
    n, k, symbols = code.n, code.k, code.symbols
    pairs = math.comb(n, 2)
    if pairs > budget:
        raise BudgetExceeded("ARC2 needs %d plans" % pairs)
    singles = _plans(code, [1 << i for i in range(n)], 1 << 16)
    if None in singles:
        raise UnrecoverableError("a single erasure is not recoverable")
    costs = {s: p.symbols_read for s, p in zip(symbols, singles)}
    arc = sum(costs.values()) / n
    adrc = sum(costs[s] for s in code.data_ids) / k
    doubles = _plans(code, [1 << a | 1 << b
                            for a, b in combinations(range(n), 2)], 1 << 16)
    # single-fault-tolerant codes have no two-erasure cost
    arc2 = None if None in doubles else \
        sum(p.symbols_read for p in doubles) / pairs
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
        "base_view": code.base_view,
    }


def from_json(doc):
    """Rebuild a CodeSpec from its JSON form (symbol ids become strings)."""
    def terms(pairs):
        return tuple((s, int(c)) for s, c in pairs)

    return CodeSpec(
        name=doc.get("name", "inline"),
        field=gf.Field(doc["field_bits"]),
        data_ids=tuple(doc["data_ids"]),
        check_ids=tuple(doc["check_ids"]),
        equations=tuple((cid, terms(t)) for cid, t in doc["equations"]),
        extra_equations=tuple(map(terms, doc.get("extra_equations", []))),
        column_map=dict(doc["column_map"]),
        row_map=doc.get("row_map"),
        base_view=doc.get("base_view"),
    )

