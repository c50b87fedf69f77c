# Galois field arithmetic for erasure codes.
#
# Addition is XOR.  Multiplication uses log/antilog tables built from a fixed
# primitive polynomial per field size.  GF(2) is special-cased (bit algebra).

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

    sub = add

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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, k):
        if a == 0:
            return 0 if k else 1
        if self.w == 1:
            return 1
        n = self.order - 1
        return self.exp[(self.log[a] * (k % n)) % n]

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return "GF(2^%d)" % self.w


GF2 = Field(1)
GF16 = Field(4)
GF256 = Field(8)


def _eliminate(field, m, ncols):
    """Gauss-Jordan on the rows `m` in place, pivoting on the first `ncols`
    columns; returns the rank.  Pivot rows move to the top, scaled to 1."""
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        iv = field.inv(m[r][c])
        if iv != 1:
            m[r] = [field.mul(v, iv) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a ^ field.mul(f, b) for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def rank(field, rows):
    """Rank of a matrix given as list of coefficient lists."""
    m = [list(r) for r in rows]
    return _eliminate(field, m, len(m[0])) if m else 0


def solve(field, a_rows, b_vecs):
    """Solve A x = b; b_vecs is a list of columns.

    A is given by its rows, at least one, and may have more rows than
    unknowns.  Returns the list of solution columns, or None unless A has
    full column rank and every b satisfies the rows beyond that rank.
    """
    n = len(a_rows[0])
    m = [list(r) + [bv[i] for bv in b_vecs] for i, r in enumerate(a_rows)]
    if _eliminate(field, m, n) < n or any(any(r[n:]) for r in m[n:]):
        return None
    return [[m[i][n + j] for i in range(n)] for j in range(len(b_vecs))]
