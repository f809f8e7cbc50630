"""Exact linear algebra over small finite fields GF(q), q = p^e <= 9.

Field elements are encoded as the integers 0..q-1.  For prime q the
encoding is the residue itself; for prime powers the base-p digits of
the encoding are the coefficients of the element written in the
polynomial basis 1, t, t^2, ... modulo a fixed irreducible polynomial.
The fixed moduli (low degree coefficient first, monic):

    GF(4):  t^2 + t + 1        over GF(2)
    GF(8):  t^3 + t + 1        over GF(2)
    GF(9):  t^2 + 1            over GF(3)

Keeping one modulus per order makes element encodings, and hence every
canonical subspace ordering downstream, reproducible across runs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .errors import NotAPrimePower, TooLarge, UnsupportedOrder, show_int

MAX_ORDER = 9

# modulus coefficients, lowest degree first, including the leading 1
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
}


def _prime_power(q):
    """Return (p, e) with q = p^e, or None if q is not a prime power."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        e = 0
        m = q
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return (q, 1)


class Field:
    """Arithmetic tables for GF(q).

    Instances are created through make_field and interned, so fields of
    equal order are identical objects and safe to compare with `is`.
    """

    __slots__ = ("q", "p", "e", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, q, p, e, modulus):
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus
        enc = self._encode_poly
        dec = self._decode_poly
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            pa = dec(a)
            for b in range(q):
                pb = dec(b)
                add[a][b] = enc([(x + y) % p for x, y in zip(pa, pb)])
                mul[a][b] = enc(self._polymul_mod(pa, pb))
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(enc([(-x) % p for x in dec(a)]) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
            else:
                raise NotAPrimePower(f"no inverse for element {a} in GF({q})")
        self._inv = tuple(inv)

    def _decode_poly(self, a):
        digits = []
        for _ in range(self.e):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode_poly(self, coeffs):
        val = 0
        for c in reversed(coeffs[: self.e]):
            val = val * self.p + (c % self.p)
        return val

    def _polymul_mod(self, pa, pb):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(pa):
            if not x:
                continue
            for j, y in enumerate(pb):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce t^k = -(modulus minus leading term) * t^(k-e)
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k]
            if not c:
                continue
            prod[k] = 0
            for i in range(e):
                prod[k - e + i] = (prod[k - e + i] - c * self.modulus[i]) % p
        return prod[:e]

    def decode(self, a):
        """Base-p digits of the encoding: coefficients in 1, t, t^2, ..."""
        return tuple(self._decode_poly(a))

    def encode(self, digits):
        return self._encode_poly(list(digits))

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def dot(self, u, v):
        acc = 0
        for x, y in zip(u, v):
            acc = self._add[acc][self._mul[x][y]]
        return acc

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _field_cached(q):
    pe = _prime_power(q)
    if pe is None:
        raise NotAPrimePower(f"{q} is not a prime power")
    p, e = pe
    modulus = _IRREDUCIBLE.get(q) if e > 1 else None
    if e > 1 and modulus is None:
        raise UnsupportedOrder(f"no built-in modulus for GF({q})")
    return Field(q, p, e, modulus)


def make_field(q):
    """Return the interned Field of order q (2 <= q <= MAX_ORDER)."""
    if not isinstance(q, int):
        raise NotAPrimePower(f"field order must be an integer, got {q!r}")
    if q > MAX_ORDER:
        raise UnsupportedOrder(
            f"GF({show_int(q)}) exceeds the order cap {MAX_ORDER}")
    if q < 2:
        raise NotAPrimePower(f"{show_int(q)} is not a prime power")
    return _field_cached(q)


class FqMatrix(namedtuple("FqMatrix", "field rows cols entries")):
    """Immutable matrix over a Field; entries are element encodings, a
    tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, field, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        q = field.q
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for x in row:
                if not (0 <= x < q):
                    raise ValueError(f"entry {x} out of range for GF({q})")
        return super().__new__(cls, field, rows, cols, entries)

    @classmethod
    def from_rows(cls, field, rows, cols=None):
        rows = tuple(tuple(r) for r in rows)
        if cols is None:
            if not rows:
                raise ValueError("cols required for an empty matrix")
            cols = len(rows[0])
        return cls(field, len(rows), cols, rows)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n,
                   tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self):
        ent = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                    for j in range(self.cols))
        return FqMatrix(self.field, self.cols, self.rows, ent)

    def mul(self, other):
        if self.field is not other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        F = self.field
        bt = other.transpose().entries
        ent = tuple(tuple(F.dot(r, c) for c in bt) for r in self.entries)
        return FqMatrix(F, self.rows, other.cols, ent)


# matrix is the FqMatrix with its zero rows dropped
RrefResult = namedtuple("RrefResult", "matrix rank pivots")


def rref(M):
    """Reduced row echelon form; returns (matrix, rank, pivot columns).

    The returned matrix has its zero rows removed, so it is the unique
    canonical basis of the row space of M.
    """
    F = M.field
    rows = [list(r) for r in M.entries]
    nr, nc = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(nc):
        src = next((i for i in range(r, nr) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = F.inv(rows[r][c])
        if inv != 1:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    mat = FqMatrix(F, r, nc, tuple(tuple(row) for row in rows[:r]))
    return RrefResult(mat, r, tuple(pivots))


def nullspace(M):
    """Canonical (RREF) basis of the right kernel {x : M x^T = 0}."""
    F = M.field
    res = rref(M)
    piv = set(res.pivots)
    free = [c for c in range(M.cols) if c not in piv]
    basis = []
    for fc in free:
        vec = [0] * M.cols
        vec[fc] = 1
        for i, pc in enumerate(res.pivots):
            # pivot row i gives x_pc = -sum over free cols
            vec[pc] = F.neg(res.matrix.entries[i][fc])
        basis.append(tuple(vec))
    return rref(FqMatrix.from_rows(F, basis, M.cols)).matrix


EXHAUSTIVE_SPAN_CAP = 2 ** 20


def matrix_vectors(M):
    """All vectors in the row space of M, as encoding tuples, one at a
    time: the combinations of its rows with coefficient tuples in
    lexicographic order.  Raises TooLarge before forming any vector when
    there are more than EXHAUSTIVE_SPAN_CAP of them."""
    F = M.field
    if F.q ** M.rows > EXHAUSTIVE_SPAN_CAP:
        raise TooLarge(f"row space of size {F.q}^{M.rows} exceeds "
                       f"the cap {EXHAUSTIVE_SPAN_CAP}")
    add, mul = F._add, F._mul
    n = M.cols
    for coeffs in product(range(F.q), repeat=M.rows):
        v = [0] * n
        for c, row in zip(coeffs, M.entries):
            if c:
                times_c = mul[c]
                for j, x in enumerate(row):
                    if x:
                        v[j] = add[v[j]][times_c[x]]
        yield tuple(v)
