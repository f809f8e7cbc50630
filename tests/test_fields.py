import random
from itertools import product

import pytest

from qrank.errors import NotAPrimePower, UnsupportedOrder
from qrank.fields import FqMatrix, make_field, matrix_vectors, nullspace, rref

SUPPORTED = [2, 3, 4, 5, 7, 8, 9]


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    F = make_field(q)
    els = range(q)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b in product(els, els):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
    for a, b, c in product(els, els, els):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_small_field_facts():
    F2 = make_field(2)
    assert F2.add(1, 1) == 0
    F3 = make_field(3)
    assert F3.mul(2, 2) == 1
    # the generator t of GF(4) with modulus t^2 + t + 1: t*t = t + 1
    F4 = make_field(4)
    assert F4.mul(2, 2) == 3


def test_field_interning_and_errors():
    assert make_field(4) is make_field(4)
    with pytest.raises(NotAPrimePower):
        make_field(6)
    with pytest.raises(UnsupportedOrder):
        make_field(16)
    with pytest.raises(NotAPrimePower):
        make_field(1)


def test_rref_identity_and_forced_elimination():
    F2 = make_field(2)
    eye = FqMatrix.identity(F2, 2)
    res = rref(eye)
    assert res.matrix.entries == eye.entries and res.rank == 2
    res = rref(FqMatrix.from_rows(F2, [(1, 1), (0, 1)]))
    assert res.matrix.entries == ((1, 0), (0, 1))
    assert res.rank == 2


def test_rref_gf3_dependent_rows():
    # det(1,2;2,1) = 1 - 4 = -3 = 0 mod 3, so the rows span one line
    F3 = make_field(3)
    res = rref(FqMatrix.from_rows(F3, [(1, 2), (2, 1)]))
    assert res.rank == 1
    assert res.matrix.entries == ((1, 2),)
    # oracle: exhaustive span comparison
    span_in = set(matrix_vectors(FqMatrix.from_rows(F3, [(1, 2), (2, 1)])))
    span_out = set(matrix_vectors(res.matrix))
    assert span_in == span_out


def _random_matrix(rng, F, rows, cols):
    return FqMatrix.from_rows(
        F, [tuple(rng.randrange(F.q) for _ in range(cols)) for _ in range(rows)],
        cols)


@pytest.mark.parametrize("q", SUPPORTED)
def test_rref_idempotent_and_span_preserving(q):
    rng = random.Random(1000 + q)
    F = make_field(q)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = _random_matrix(rng, F, rows, cols)
        res = rref(M)
        again = rref(res.matrix)
        assert again.matrix.entries == res.matrix.entries
        assert set(matrix_vectors(M)) == set(matrix_vectors(res.matrix))


def test_nullspace_examples():
    F2 = make_field(2)
    z = nullspace(FqMatrix.from_rows(F2, [(0, 0, 0)]))
    assert z.rows == 3
    e = nullspace(FqMatrix.identity(F2, 3))
    assert e.rows == 0
    ns = nullspace(FqMatrix.from_rows(F2, [(1, 1, 0)]))
    # oracle: every vector of F_2^3 with x1 + x2 = 0
    expected = {v for v in product(range(2), repeat=3) if (v[0] + v[1]) % 2 == 0}
    assert set(matrix_vectors(ns)) == expected
    assert ns.entries == ((1, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_nullity(q):
    rng = random.Random(77 + q)
    F = make_field(q)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        M = _random_matrix(rng, F, rows, cols)
        assert rref(M).rank + nullspace(M).rows == cols
        # kernel really annihilates
        ns = nullspace(M)
        for v in ns.entries:
            prod_ = M.mul(FqMatrix.from_rows(F, [v], cols).transpose())
            assert all(x == 0 for row in prod_.entries for x in row)


def test_matrix_validation():
    F2 = make_field(2)
    with pytest.raises(ValueError):
        FqMatrix.from_rows(F2, [(0, 2)])
    with pytest.raises(ValueError):
        FqMatrix(F2, 1, 2, ((0,),))


def test_matrix_json_roundtrip():
    from helpers import matrix_from_json, matrix_to_json
    F3 = make_field(3)
    M = FqMatrix.from_rows(F3, [(1, 2, 0), (0, 1, 1)])
    obj = matrix_to_json(M)
    assert obj == {"q": 3, "rows": [[1, 2, 0], [0, 1, 1]], "cols": 3}
    back = matrix_from_json(obj)
    assert back.entries == M.entries and back.field is F3
    empty = matrix_from_json({"q": 2, "rows": [], "cols": 4})
    assert empty.rows == 0 and empty.cols == 4
