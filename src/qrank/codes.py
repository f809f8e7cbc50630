"""Rank-metric matrix codes, their shortenings, and the q-polymatroids
they induce.

A matrix code is an F_q-linear space of n x m matrices, given by a
basis.  The induced rank function on the subspace lattice of F_q^n is
rho(U) = (k - dim C(U)) / m with C(U) the codewords whose column space
lies inside the orthogonal complement of U.  Minimum distances are
found by exhaustive codeword scans, capped at 2^20 words; the worked
examples all have k <= 3.

C(U) is the kernel of a linear system on the coordinates c_1 .. c_k of
a codeword: each basis row b of U gives the m rows
((b G_1)_l, ..., (b G_k)_l), l = 1 .. m, and k - dim C(U) is the rank
of their span S(U) in F_q^k (shortening_dim solves that system for one
U).  The whole lattice is ranked by prefix recursion instead: dropping
the last row of U's canonical RREF basis leaves the canonical basis of
an earlier element, its prefix, so S(U) is S(prefix) plus the m rows
of that last basis row.  Each subspace then costs one elimination step
of m rows against the prefix's echelon basis, and none once the prefix
already spans F_q^k.  A vector code over F_{q^m} is ranked the same
way, with one row (g_1 . b, ..., g_k . b) over the extension field per
basis row b.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from pathlib import Path

from .constructions import (combined_profile, point_from_profile,
                            profile_independent_dims, report_point,
                            uniform_profile)
from .errors import (HypothesisFail, LatticeMismatch, OutOfRange,
                     UnsupportedOrder, UnsupportedShape, ValidationError,
                     ZeroCode, parse_int, parse_key, read_json, show_int)
from .fields import (EXHAUSTIVE_SPAN_CAP, FqMatrix, make_field, matrix_vectors,
                     nullspace, rref)
from .rankfun import RankPoint

CODEWORD_SCAN_CAP = EXHAUSTIVE_SPAN_CAP  # the row-space cap of matrix_vectors


def _flatten(M):
    return tuple(x for row in M.entries for x in row)


class MatrixCode(namedtuple("MatrixCode", "field n m generators")):
    """F_q-linear rank-metric code in F_q^{n x m}, given by a basis:
    generators is a tuple of linearly independent n x m FqMatrix."""

    __slots__ = ()

    def __new__(cls, field, n, m, generators):
        for G in generators:
            if G.field is not field or (G.rows, G.cols) != (n, m):
                raise ValidationError("generator shape or field mismatch")
        if generators:
            flat = FqMatrix.from_rows(field, [_flatten(G) for G in generators],
                                      n * m)
            if rref(flat).rank != len(generators):
                raise ValidationError("generators are linearly dependent")
        return super().__new__(cls, field, n, m, generators)

    @property
    def k(self):
        return len(self.generators)

    def codewords(self):
        """All q^k codewords as entry tuples (row-major), lazily; raises
        TooLarge past CODEWORD_SCAN_CAP words before forming any."""
        flat = FqMatrix(self.field, self.k, self.n * self.m,
                        tuple(_flatten(G) for G in self.generators))
        return matrix_vectors(flat)

    def word_rank(self, flat_word):
        rows = [flat_word[i * self.m:(i + 1) * self.m] for i in range(self.n)]
        return rref(FqMatrix.from_rows(self.field, rows, self.m)).rank


def matrix_code(field, n, m, generators):
    return MatrixCode(field, n, m, tuple(generators))


def dual_code(C):
    """C^perp under the trace form Tr(M N^T), which on matrix entries is
    the plain dot product of the flattenings."""
    nm = C.n * C.m
    if C.k == 0:
        basis = FqMatrix.identity(C.field, nm).entries
    else:
        flat = FqMatrix.from_rows(C.field, [_flatten(G) for G in C.generators], nm)
        basis = nullspace(flat).entries
    gens = [FqMatrix.from_rows(C.field,
                               [row[i * C.m:(i + 1) * C.m] for i in range(C.n)],
                               C.m)
            for row in basis]
    return MatrixCode(C.field, C.n, C.m, tuple(gens))


def minimum_distance(C):
    if C.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    best = None
    for w in C.codewords():
        if any(w):
            r = C.word_rank(w)
            if best is None or r < best:
                best = r
                if best == 1:
                    break
    return best


CodeMetrics = namedtuple("CodeMetrics", "k d d_perp is_mrd")


def code_metrics(C):
    """Dimension, minimum distance, dual distance, and the Singleton
    bound check k = max(n,m) (min(n,m) - d + 1)."""
    d = minimum_distance(C)
    d_perp = minimum_distance(dual_code(C))
    singleton = max(C.n, C.m) * (min(C.n, C.m) - d + 1)
    return CodeMetrics(C.k, d, d_perp, C.k == singleton)


def shortening_dim(C, lattice, u):
    """dim { M in C : colsp(M) <= U^perp } for the subspace at index u.

    Column spaces lie in U^perp exactly when B_U M = 0 for a basis
    matrix B_U of U, which is a linear system on the coordinates of C."""
    if lattice.q != C.field.q or lattice.n != C.n:
        raise LatticeMismatch("lattice does not match the code's row space")
    if C.k == 0:
        return 0
    B = lattice.subspaces[u].basis
    if B.rows == 0:
        return C.k
    cols = []
    for G in C.generators:
        cols.append(_flatten(B.mul(G)))
    # system rows indexed by (row of B, column of G); unknowns are the c_i
    mat = FqMatrix.from_rows(C.field,
                             [tuple(col[r] for col in cols) for r in range(len(cols[0]))],
                             C.k)
    return C.k - rref(mat).rank


def _prefix_ranks(lattice, field, k, rows_of):
    """The rank of S(U) for every subspace U, in lattice order, where
    S(U) is the span in field^k of rows_of(b) over the basis rows b of
    U, by prefix recursion (see the module docstring).

    The last row of a canonical RREF basis is itself the canonical
    basis of an atom, which comes earlier in the order, so rows_of runs
    once per atom and every larger U adds its last atom's rows to the
    span of its prefix.  Each span is held as echelon rows: each has
    entry 1 at its pivot column and 0 at the pivot of every row before
    it, so a vector reduced by the rows in turn ends with 0 at every
    pivot, and what is left of it, if anything, is the next row."""
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    index = lattice.index
    spans = [()]
    for s in lattice.subspaces[1:]:
        entries = s.basis.entries
        span = spans[index[entries[:-1]]]
        if len(span) < k:
            if len(entries) == 1:
                new = rows_of(entries[0])
            else:
                new = [row for _, row in spans[index[entries[-1:]]]]
            span = list(span)
            for v in new:
                for c, row in span:
                    f = v[c]
                    if f:
                        times = mul[neg[f]]
                        v = [add[x][times[y]] for x, y in zip(v, row)]
                c = next((c for c, x in enumerate(v) if x), None)
                if c is not None:
                    times = mul[inv[v[c]]]
                    span.append((c, [times[x] for x in v]))
                    if len(span) == k:
                        break
            span = tuple(span)
        spans.append(span)
    return [len(span) for span in spans]


def induced_polymatroid(C, lattice):
    """RankPoint with v_U = (k - dim C(U)) / m, where k - dim C(U) is
    the rank of S(U), found for every U by prefix recursion: the last
    basis row b of U adds the rows ((b G_1)_l, ..., (b G_k)_l) to
    S(prefix of U).  shortening_dim is the per-subspace definition."""
    if lattice.q != C.field.q or lattice.n != C.n:
        raise LatticeMismatch("lattice does not match the code's row space")
    F, k, m = C.field, C.k, C.m

    def rows_of(b):
        # row l holds (b G_i)_l, the dot of b with column l of G_i
        prods = [[F.dot(b, col) for col in zip(*G.entries)] for G in C.generators]
        return [list(row) for row in zip(*prods)]

    ranks = _prefix_ranks(lattice, F, k, rows_of)
    vals = [Fraction(r, m) for r in range(k + 1)]
    return RankPoint(lattice, tuple(vals[r] for r in ranks))


def mrd_profile(n, m, d):
    """Values by dimension of the rank function of an MRD code in
    F_q^{n x m} with distance d.

    For m >= n it is the uniform q-matroid of rank n-d+1.  For m = n-1
    the value is dim(U) up to dimension n-d and n(n-d)/(n-1) above.
    Other shapes with m < n are rejected: the cited bound leaves a gap
    of dimensions where the rank value is not determined."""
    if not 1 <= d <= min(n, m):
        raise OutOfRange(f"need 1 <= d <= min(n, m), got d={show_int(d)}, "
                         f"n={show_int(n)}, m={show_int(m)}")
    if m >= n:
        return uniform_profile(n, n - d + 1)
    if m == n - 1:
        plateau = Fraction(n * (n - d), n - 1)
        return tuple(Fraction(dd) if dd <= n - d else plateau
                     for dd in range(n + 1))
    raise UnsupportedShape(f"m={m} < n-1={n - 1}: no closed form is available")


def mrd_closed_form(lattice, m, d):
    """Rank function of an MRD code in F_q^{n x m} with distance d, from
    mrd_profile."""
    return point_from_profile(lattice, mrd_profile(lattice.n, m, d))


MrdComboReport = namedtuple("MrdComboReport", [
    "n", "k1", "k2", "lam", "mu", "values_by_dim", "all_independent",
    "point"])  # a RankPoint when a lattice was supplied


def mrd_combo_independence(n, d1, d2, lam, lattice=None):
    """Combination of two MRD-induced q-polymatroids on F_q^{n x (n-1)}.

    Requires 1 < k1 < k2 with k1 + k2 >= n (k_i = n(n - d_i)); then
    mu = denom(lam) * (n-1) is a denominator and the whole lattice is
    mu-independent, which the report re-derives from the profile."""
    k1, k2 = n * (n - d1), n * (n - d2)
    if not (1 < k1 < k2 and k1 + k2 >= n):
        raise HypothesisFail(
            f"need 1 < k1 < k2 and k1 + k2 >= n; got k1={k1}, k2={k2}, n={n}")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise HypothesisFail(f"need 0 < lam < 1, got {lam}")
    mu = lam.denominator * (n - 1)
    vals = combined_profile([(1 - lam, mrd_profile(n, n - 1, d1)),
                             (lam, mrd_profile(n, n - 1, d2))])
    all_indep = n in profile_independent_dims(vals, mu)
    return MrdComboReport(n, k1, k2, lam, mu, vals, all_indep,
                          report_point(lattice, vals))


# -- vector codes over an extension field --------------------------------

class VectorCode(namedtuple("VectorCode", "base_field ext_field n generators")):
    """F_{q^m}-linear code of length n, given by a basis over F_{q^m}:
    base_field is GF(q), ext_field GF(q^m), and generators a tuple of
    length-n tuples of GF(q^m) encodings."""

    __slots__ = ()

    def __new__(cls, base_field, ext_field, n, generators):
        if ext_field.p != base_field.p:
            raise UnsupportedOrder("extension field characteristic mismatch")
        if base_field.e != 1:
            raise UnsupportedOrder("vector codes are supported over prime base fields")
        for g in generators:
            if len(g) != n:
                raise ValidationError("generator length mismatch")
        if generators:
            M = FqMatrix.from_rows(ext_field, generators, n)
            if rref(M).rank != len(generators):
                raise ValidationError("generators dependent over the extension field")
        return super().__new__(cls, base_field, ext_field, n, generators)

    @property
    def k(self):
        return len(self.generators)

    @property
    def m(self):
        return self.ext_field.e


def vector_code(q, m, n, generators):
    base = make_field(q)
    ext = make_field(q ** m)
    return VectorCode(base, ext, n, tuple(tuple(g) for g in generators))


def vector_code_qmatroid(V, lattice):
    """Integer RankPoint with rho(W) = k - dim_{F_{q^m}} C(W), where
    C(W) kills the codewords orthogonal to W over the extension field.
    rho(W) is the rank over F_{q^m} of the rows (g_1 . b, ..., g_k . b)
    over the basis rows b of W, found for every W by prefix recursion:
    the last basis row of W adds one row to the span of its prefix's."""
    if lattice.q != V.base_field.q or lattice.n != V.n:
        raise LatticeMismatch("lattice does not match the code length")
    ext = V.ext_field

    def rows_of(b):
        # a prime base field's encodings are the same ints in F_{q^m}
        return [[ext.dot(g, b) for g in V.generators]]

    ranks = _prefix_ranks(lattice, ext, V.k, rows_of)
    vals = [Fraction(r) for r in range(V.k + 1)]
    return RankPoint(lattice, tuple(vals[r] for r in ranks))


def expanded_matrix_code(V):
    """Column expansion of a vector code: coordinate j of a codeword
    becomes column j, written in the basis 1, t, t^2, ... of F_{q^m}
    over F_q.  The result is a matrix code in F_q^{m x n} whose induced
    q-polymatroid lives on the lattice of F_q^m."""
    base, ext = V.base_field, V.ext_field
    m, n = V.m, V.n

    def expand(vec):
        cols = [ext.decode(x) for x in vec]
        rows = [tuple(cols[j][i] for j in range(n)) for i in range(m)]
        return FqMatrix.from_rows(base, rows, n)

    gens = []
    for g in V.generators:
        for a in range(m):
            scaled = tuple(ext.mul(ext.encode([0] * a + [1]), x) for x in g)
            gens.append(expand(scaled))
    return MatrixCode(base, m, n, tuple(gens))


# -- fixtures and serialization -------------------------------------------

def code_to_json(C):
    return {
        "q": C.field.q,
        "n": C.n,
        "m": C.m,
        "generators": [[list(r) for r in G.entries] for G in C.generators],
    }


def _positive_int(value):
    if parse_int(value) < 1:
        raise ValueError(f"need a positive integer, got {value}")
    return value


def code_from_json(obj, source="code"):
    """The MatrixCode of a code file's object; q, n and m that are not
    ints, n or m below 1, and generators with a ragged row, an entry
    that is not an int of the field, a shape other than n x m or a
    linear dependence, raise BadValue naming the key and source."""
    q = parse_key(obj, "q", parse_int, source)
    n, m = (parse_key(obj, key, _positive_int, source) for key in ("n", "m"))
    field = make_field(q)
    return parse_key(obj, "generators", lambda gens: MatrixCode(
        field, n, m, tuple(
            FqMatrix.from_rows(field, [[parse_int(x) for x in r] for r in rows], m)
            for rows in gens)), source)


def load_code(path):
    """The MatrixCode of the code file at path (read_json, code_from_json)."""
    return code_from_json(read_json(path, ("q", "n", "m", "generators")), path)


def bundled_vertex_code_path():
    return Path(__file__).parent / "data" / "f2_3x2_vertex_code.json"


def vertex_example_code():
    """The F_2-[3x2, 3, 1] code whose induced point is a polytope vertex
    with fractional coordinates; ships as a JSON fixture as well."""
    return load_code(bundled_vertex_code_path())


def gabidulin_line_code():
    """The F_8-line spanned by (1, t), column-expanded to an
    F_2-[3x2, 3, 2] MRD code."""
    return expanded_matrix_code(vector_code(2, 3, 2, [(1, 2)]))
