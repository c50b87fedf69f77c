# Galois field arithmetic for erasure codes.
#
# Addition is XOR.  Multiplication uses log/antilog tables built from a fixed
# primitive polynomial per field size.  GF(2) is special-cased (bit algebra).
# Elimination is table-driven and vectorised across a stack of matrices, one
# pivot step at a time: each Field builds its full product table and inverse
# table once, on first use, as uint8 arrays; over GF(2) the products are ANDs.

from functools import cached_property

import numpy as np

_PRIMITIVE_POLY = {
    1: 0b11,         # x + 1 (GF(2), tables degenerate)
    4: 0b10011,      # x^4 + x + 1
    8: 0b100011101,  # x^8 + x^4 + x^3 + x^2 + 1
}


class Field:
    """GF(2^w) for w in {1, 4, 8}."""

    def __init__(self, w=8):
        if w not in _PRIMITIVE_POLY:
            raise ValueError("unsupported field width %r (use 1, 4 or 8)" % (w,))
        self.w = w
        self.order = 1 << w
        self.poly = _PRIMITIVE_POLY[w]
        n = self.order - 1
        self.exp = [0] * (2 * max(n, 1))
        self.log = [0] * self.order
        x = 1
        for i in range(n):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & self.order:
                x ^= self.poly
        for i in range(n, 2 * n):
            self.exp[i] = self.exp[i - n]

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        if self.w == 1:
            return a & b
        n = self.order - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        if self.w == 1:
            return 1
        n = self.order - 1
        return self.exp[(n - self.log[a]) % n]

    def pow(self, a, k):
        if a == 0:
            return 0 if k else 1
        if self.w == 1:
            return 1
        n = self.order - 1
        return self.exp[(self.log[a] * (k % n)) % n]

    @cached_property
    def tables(self):
        """(MUL, INV): the q x q product table and the inverse table as uint8
        arrays, gathered from the log/antilog tables (MUL[a, b] = a * b,
        INV[0] = 0)."""
        n = self.order - 1
        exp = np.array(self.exp, dtype=np.uint8)
        log = np.array(self.log[1:], dtype=np.intp)  # of 1 .. q-1
        mul = np.zeros((self.order, self.order), dtype=np.uint8)
        for a in range(1, self.order):  # a * b = exp[log a + log b]
            mul[a, 1:] = exp[self.log[a]:][log]
        inv = np.zeros(self.order, dtype=np.uint8)
        inv[1:] = exp[n - log]
        return mul, inv

    @cached_property
    def kernel(self):
        """(times, scale) for `pivot`: the elementwise product of uint8
        arrays, an AND over GF(2), and SCALE[1, p] = 1 / p, SCALE[0] = 0."""
        mul, inv = self.tables
        scale = np.zeros((2, self.order), dtype=np.uint8)
        scale[1] = inv
        if self.w == 1:
            return np.bitwise_and, scale
        mul, w = mul.ravel(), self.w
        index = np.uint8 if self.order <= 16 else np.uint16

        def times(a, b):  # through the flat product table
            return mul.take(np.left_shift(a, w, dtype=index) | b)

        return times, scale

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return "GF(2^%d)" % self.w


GF2 = Field(1)
GF16 = Field(4)
GF256 = Field(8)


def pivot(field, m, cols, free):
    """One Gauss-Jordan step, in place, on every matrix of the uint8 stack
    `m`: matrix i pivots on its column cols[i], or, given an int, every
    matrix on that column, with the columns left of it taken as final and
    no longer updated.  Returns whether each matrix found a pivot.

    `m` has shape (rows, cols, matrices): the matrix axis is last, so the
    step runs along contiguous matrices.  `free` (rows, matrices) marks the
    rows without a pivot; the pivot is the first free row nonzero in the
    column, which leaves `free`.  Rows stay where they are: the pivot row is
    scaled to 1 in the pivot column, which is cleared from every other row.
    A matrix without a pivot is left as it is.
    """
    times, scale = field.kernel
    at = np.arange(m.shape[2])
    if not len(m):
        return np.zeros(len(at), dtype=bool)
    if isinstance(cols, int):
        m = m[:, cols:]
        col = m[:, 0].copy()
    else:
        col = m[:, cols, at]
    cand = (col != 0) & free
    piv = cand.argmax(axis=0)
    has = cand[piv, at]
    row = m[piv, :, at].T
    row = times(scale[has.view(np.uint8), col[piv, at]], row)
    # row i gains f_i * row, f the pivot column, which the other rows thus
    # clear; the pivot row's factor p + 1 turns it into the scaled row
    col[piv, at] ^= has
    m ^= times(col[:, None], row)
    free[piv, at] ^= has
    return has


def eliminate(field, m, ncols):
    """Gauss-Jordan, in place, on every matrix of the uint8 stack `m`
    (rows, cols, matrices), pivoting on the first `ncols` columns in order
    by `pivot`; returns each matrix's rank.  Columns beyond `ncols`
    (right-hand sides) are carried along."""
    nrows, _, b = m.shape
    free = np.ones((nrows, b), dtype=bool)
    for c in range(ncols):
        pivot(field, m, c, free)
    return nrows - free.sum(axis=0)


def rank(field, rows):
    """Rank of a matrix: a 2-D array or a list of coefficient lists."""
    if not len(rows):
        return 0
    m = np.array(rows, dtype=np.uint8)[:, :, None]
    return int(eliminate(field, m, m.shape[1])[0])


def solve(field, a, b_vecs):
    """Solve A x = b; b_vecs is a list of columns.

    A is a 2-D array or a list of rows, at least one, and may have more rows
    than unknowns.  Returns the list of solution columns, or None unless A
    has full column rank and every b satisfies the rows beyond that rank.
    """
    n = len(a[0])
    m = np.column_stack((a, *b_vecs)).astype(np.uint8)[:, :, None]
    if eliminate(field, m, n)[0] < n:
        return None
    a, rhs = m[:, :n, 0], m[:, n:, 0]
    # with full column rank each column holds a single 1, in its pivot row;
    # the other rows are zero on A and must be zero on b too
    if rhs[~a.any(axis=1)].any():
        return None
    return rhs[a.argmax(axis=0)].T.tolist()
