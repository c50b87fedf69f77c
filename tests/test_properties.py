"""Property-based checks of the structural invariants."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raidlab import builders, codes, gf
from raidlab.disk import DiskProfile, seek_distance_pmf, seek_time_moments, \
    transform_eval
from raidlab.queueing import mg1_wait
from raidlab.disk import MomentSet


profiles = st.builds(
    lambda c, a, b, p: DiskProfile(cylinders=c, rotation_time=8.33,
                                   seek_char=(a, b), no_move_prob=p),
    st.integers(min_value=2, max_value=300),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
)


class TestPmfProperties:
    @given(profiles)
    @settings(max_examples=60, deadline=None)
    def test_pmf_normalized_nonnegative(self, prof):
        pmf = seek_distance_pmf(prof)
        assert abs(pmf.probs.sum() - 1.0) < 1e-12
        assert (pmf.probs >= 0).all()

    @given(profiles, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_seek_moment_scaling(self, prof, alpha):
        pmf = seek_distance_pmf(prof)
        base = seek_time_moments(pmf, prof.seek_time)
        scaled = seek_time_moments(pmf, lambda d: alpha * prof.seek_time(d))
        assert scaled.m1 == pytest.approx(alpha * base.m1, rel=1e-9, abs=1e-12)
        assert scaled.m2 == pytest.approx(alpha ** 2 * base.m2, rel=1e-9,
                                          abs=1e-12)

    @given(profiles)
    @settings(max_examples=30, deadline=None)
    def test_transform_completely_monotone_grid(self, prof):
        dist = seek_distance_pmf(prof).map(lambda d: d + 0.5)
        values = [transform_eval(dist, s) for s in np.linspace(0.0, 3.0, 16)]
        assert values[0] == pytest.approx(1.0)
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestQueueProperties:
    @given(st.floats(min_value=0.01, max_value=0.95),
           st.floats(min_value=1.0, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_wait_nonnegative_and_monotone(self, rho, mean):
        svc = MomentSet.exponential(mean)
        lam = rho / mean * 1000.0
        w1 = mg1_wait(lam, svc).wait
        w2 = mg1_wait(lam * 1.02, svc).wait if rho < 0.93 else None
        assert w1 >= 0.0
        if w2 is not None:
            assert w2 > w1


CODES = {
    "raid5": lambda: builders.raid5(6),
    "rdp": lambda: builders.rdp(5),
    "was": builders.was_lrc_6_2_2,
    "azure": lambda: builders.azure_lrc(10, 6, 3),
    "sspiral": builders.sspiral,
    "pmds": builders.pmds_fig,
    "pyramid": builders.pyramid_8_2_2,
    "hvpc": lambda: builders.hvpc(2, 2),
}


class TestCodeProperties:
    @given(st.sampled_from(sorted(CODES)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unrecoverable_supersets_stay_unrecoverable(self, name, data):
        code = CODES[name]()
        syms = sorted(code.symbols, key=str)
        pattern = data.draw(st.sets(st.sampled_from(syms), min_size=1,
                                    max_size=min(6, len(syms))))
        if codes.is_recoverable(code, pattern):
            # subsets of recoverable patterns are recoverable
            drop = data.draw(st.sampled_from(sorted(pattern, key=str)))
            assert codes.is_recoverable(code, pattern - {drop})
        else:
            extra = data.draw(st.sampled_from(syms))
            assert not codes.is_recoverable(code, pattern | {extra})

    @given(st.sampled_from(sorted(CODES)), st.integers(0, 2 ** 31), st.data())
    @settings(max_examples=40, deadline=None)
    def test_encode_erase_decode_roundtrip(self, name, seed, data):
        code = CODES[name]()
        rng = np.random.default_rng(seed)
        values = codes.encode(code, None, rng)
        syms = sorted(code.symbols, key=str)
        pattern = data.draw(st.sets(st.sampled_from(syms), min_size=1,
                                    max_size=4))
        got = codes.decode(code, {s: v for s, v in values.items()
                                  if s not in pattern}, pattern)
        # decode fails exactly on the patterns the rank test rejects
        assert (got is None) == (not codes.is_recoverable(code, pattern))
        if got is not None:
            for s in pattern:
                assert got[s] == values[s]


def _det(field, a):
    """Determinant by permutation expansion; signs vanish in characteristic
    2, so every term is added."""
    total = 0
    for perm in permutations(range(len(a))):
        term = 1
        for i, j in enumerate(perm):
            term = field.mul(term, a[i][j])
        total ^= term
    return total


def _minor_rank(field, a):
    """Largest k with a nonzero k x k minor."""
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        if any(_det(field, [[a[i][j] for j in cs] for i in rs])
               for rs in combinations(range(rows), k)
               for cs in combinations(range(cols), k)):
            return k
    return 0


def _times(field, a, x):
    out = []
    for row in a:
        acc = 0
        for c, v in zip(row, x):
            acc ^= field.mul(c, v)
        out.append(acc)
    return out


FIELDS = {"GF2": gf.GF2, "GF16": gf.GF16, "GF256": gf.GF256}


@st.composite
def field_matrices(draw, rows, cols):
    """(field, matrix) with the given shape strategies; zeros and ones are
    drawn often so that singular matrices show up over GF(256) too."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nr = draw(rows)
    nc = draw(cols(nr))
    el = st.one_of(st.just(0), st.just(1), st.integers(0, field.order - 1))
    return field, [[draw(el) for _ in range(nc)] for _ in range(nr)]


@st.composite
def field_batches(draw):
    """(field, matrices of one shape) for one batched elimination: zero
    columns and (scaled) duplicate columns are planted often, and there may
    be more rows than columns."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    nr = draw(st.integers(1, 5))
    nc = draw(st.integers(1, 4))
    el = st.one_of(st.just(0), st.just(1), st.integers(0, field.order - 1))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        a = [[draw(el) for _ in range(nc)] for _ in range(nr)]
        j, k = draw(st.integers(0, nc - 1)), draw(st.integers(0, nc - 1))
        plant = draw(st.sampled_from(["none", "zero", "duplicate"]))
        scale = draw(st.integers(1, field.order - 1))
        for row in a:
            if plant == "zero":
                row[j] = 0
            elif plant == "duplicate":
                row[j] = field.mul(scale, row[k])
        mats.append(a)
    return field, mats


class TestBatchedElimination:
    @given(field_batches())
    @settings(max_examples=300, deadline=None)
    def test_batched_ranks_are_largest_nonzero_minors(self, fb):
        field, mats = fb
        # the stack is (rows, cols, patterns)
        stack = np.array(mats, dtype=np.uint8).transpose(1, 2, 0).copy()
        ranks = gf.eliminate(field, stack, stack.shape[1])
        assert ranks.tolist() == [_minor_rank(field, a) for a in mats]

    def test_batch_of_one_and_many_agree(self):
        rng = np.random.default_rng(5)
        for field in FIELDS.values():
            stack = rng.integers(0, field.order, (6, 4, 300)).astype(np.uint8)
            stack[:, 1] = stack[:, 0]  # every matrix loses a column
            stack[:, :, ::7] = 0
            single = [gf.rank(field, stack[:, :, i].tolist())
                      for i in range(300)]
            assert gf.eliminate(field, stack.copy(), 4).tolist() == single


class TestEliminationOracle:
    @given(field_matrices(st.integers(1, 4), lambda r: st.integers(1, 5)))
    @settings(max_examples=300, deadline=None)
    def test_rank_is_largest_nonzero_minor(self, fm):
        field, a = fm
        assert gf.rank(field, a) == _minor_rank(field, a)

    @given(field_matrices(st.integers(1, 4), st.just), st.data())
    @settings(max_examples=300, deadline=None)
    def test_solve_square(self, fm, data):
        field, a = fm
        b = data.draw(st.lists(st.integers(0, field.order - 1),
                               min_size=len(a), max_size=len(a)))
        x = gf.solve(field, a, [b])
        assert (x is None) == (_det(field, a) == 0)
        if x is not None:
            assert _times(field, a, x[0]) == b

    @given(field_matrices(st.integers(1, 5),
                          lambda r: st.integers(1, min(r, 4))), st.data())
    @settings(max_examples=300, deadline=None)
    def test_solve_overdetermined(self, fm, data):
        field, a = fm
        cols = len(a[0])
        el = st.integers(0, field.order - 1)
        if data.draw(st.booleans()):
            x0 = data.draw(st.lists(el, min_size=cols, max_size=cols))
            b = _times(field, a, x0)
        else:
            b = data.draw(st.lists(el, min_size=len(a), max_size=len(a)))
        x = gf.solve(field, a, [b])
        rank = _minor_rank(field, a)
        # b is in the column space iff appending it leaves the rank as is
        augmented = [r + [v] for r, v in zip(a, b)]
        consistent = _minor_rank(field, augmented) == rank
        assert (x is None) == (rank < cols or not consistent)
        if x is not None:
            assert _times(field, a, x[0]) == b


def _peeled(h, erased):
    """Columns of `erased` left after repeatedly solving every row of `h`
    with a single erased nonzero."""
    erased = set(erased)
    while True:
        touch = [{j for j in erased if row[j]} for row in h]
        solo = {next(iter(t)) for t in touch if len(t) == 1}
        if not solo:
            return erased
        erased -= solo


class TestSinglePatternQueries:
    @given(field_matrices(st.integers(1, 5), lambda r: st.integers(1, 6)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_peel_and_rank_match_minor_rank(self, fm, data):
        # a code whose parity-check matrix is the drawn H, one symbol per
        # column; rows without a nonzero are equations with no terms
        field, h = fm
        names = tuple("s%d" % j for j in range(len(h[0])))
        code = codes.CodeSpec(
            name="drawn", field=field, data_ids=names, check_ids=(),
            equations=(), extra_equations=tuple(
                tuple((s, c) for s, c in zip(names, row) if c)
                for row in h))
        columns = st.sets(st.integers(0, len(names) - 1))
        pattern = sorted(data.draw(columns))
        erased = [names[j] for j in pattern]
        mask = sum(1 << j for j in pattern)
        assert codes._peel(code._support, mask) == \
            sum(1 << j for j in _peeled(h, pattern))
        want = _minor_rank(field, [[row[j] for j in pattern]
                                   for row in h]) == len(pattern)
        assert codes.is_recoverable(code, erased) == want
        if want:
            plan = codes.repair_plan(code, erased, exact_limit=0)
            assert not plan.optimal  # the greedy cover
            assert codes.verify_plan(code, erased, plan.reads)
        # reads suffice iff the unread survivors U leave the erased E
        # determined: rank(H[:, E + U]) == |E| + rank(H[:, U])
        reads = data.draw(columns)
        unread = [j for j in range(len(names))
                  if j not in reads and j not in pattern]

        def minor_rank(cols):
            return _minor_rank(field, [[row[j] for j in cols] for row in h])

        assert codes.verify_plan(code, erased, [names[j] for j in reads]) == \
            (minor_rank(pattern + unread) == len(pattern) + minor_rank(unread))
