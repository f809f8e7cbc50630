"""The library's records: immutable, hashable by value, with the reprs
and the validation errors they have always had."""

from fractions import Fraction

import pytest

from qrank.charpoly import char_puiseux
from qrank.codes import (MatrixCode, VectorCode, code_metrics, matrix_code,
                         mrd_combo_independence, vector_code)
from qrank.constructions import (PavingSpec, flag_uniform_combo, paving_combo_report,
                                 paving_spec, two_uniform_combo_report, uniform)
from qrank.errors import (DimensionMismatch, InvalidCollection, UnsupportedOrder,
                          ValidationError)
from qrank.fields import FqMatrix, make_field, rref
from qrank.polytope import build_hrep, interior_witness, is_vertex, membership
from qrank.rankfun import (RankPoint, check_axioms, classify, closure,
                           independence_report)

F2 = make_field(2)
# a 2-space of L(F_2^3)
_PLANE = 13


def _code():
    return matrix_code(F2, 2, 2, [FqMatrix.identity(F2, 2)])


# record name -> a call that builds one from scratch on L(F_2^3)
RECORDS = {
    "FqMatrix": lambda lat: FqMatrix.identity(F2, 3),
    "RrefResult": lambda lat: rref(FqMatrix.identity(F2, 3)),
    "RankPoint": lambda lat: uniform(lat, 2),
    "AxiomReport": lambda lat: check_axioms(uniform(lat, 2)),
    "IndependenceReport": lambda lat: independence_report(uniform(lat, 2), 1),
    "ClosureResult": lambda lat: closure(uniform(lat, 1), 1),
    "Classification": lambda lat: classify(uniform(lat, 2), 1),
    "Membership": lambda lat: membership(build_hrep(lat), uniform(lat, 2)),
    "VertexCertificate": lambda lat: is_vertex(build_hrep(lat), uniform(lat, 2)),
    "PavingSpec": lambda lat: paving_spec(lat, 2, [_PLANE]),
    "PavingComboReport": lambda lat: paving_combo_report(
        paving_spec(lat, 2, []), paving_spec(lat, 2, [_PLANE]), Fraction(1, 2)),
    "TwoUniformReport": lambda lat: two_uniform_combo_report(
        2, 4, 2, 3, Fraction(1, 2)),
    "FlagComboReport": lambda lat: flag_uniform_combo(
        2, 5, [Fraction(1, 3)] * 3),
    "MatrixCode": lambda lat: _code(),
    "CodeMetrics": lambda lat: code_metrics(_code()),
    "MrdComboReport": lambda lat: mrd_combo_independence(3, 2, 1, Fraction(1, 2)),
    "VectorCode": lambda lat: vector_code(2, 3, 2, [(1, 2)]),
    "TruncatedPuiseux": lambda lat: char_puiseux(uniform(lat, 2)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_hash_by_value(name, lat23):
    rec, again = RECORDS[name](lat23), RECORDS[name](lat23)
    assert type(rec).__name__ == name
    assert rec is not again and rec == again and hash(rec) == hash(again)
    field = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, getattr(again, field))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_record_reprs(lat22):
    witness = interior_witness(lat22)
    assert repr(membership(build_hrep(lat22), witness)) == (
        "Membership(status='interior', tight_rows=(), violated_rows=())")
    assert repr(witness) == "RankPoint(q=2, n=2, [0,1/2,1/2,1/2,2/3])"
    assert repr(check_axioms(uniform(lat22, 1))) == (
        "AxiomReport(ok=True, violations=())")
    assert repr(code_metrics(_code())) == (
        "CodeMetrics(k=1, d=2, d_perp=1, is_mrd=False)")
    assert repr(closure(uniform(lat22, 1), 1)) == (
        "ClosureResult(atoms=frozenset({1, 2, 3}), closure=4)")
    assert repr(char_puiseux(uniform(lat22, 2))) == (
        "TruncatedPuiseux(terms=((Fraction(0, 1), 2), (Fraction(1, 1), -3), "
        "(Fraction(2, 1), 1)))")


def test_rank_point_checks_its_length(lat22):
    with pytest.raises(DimensionMismatch, match="expected 5 values, got 4"):
        RankPoint(lat22, (Fraction(0),) * 4)


@pytest.mark.parametrize("args,message", [
    ((F2, -1, 2, ()), "negative matrix dimensions"),
    ((F2, 2, 2, ((0, 0),)), "row count does not match entries"),
    ((F2, 1, 2, ((0,),)), "ragged matrix"),
    ((F2, 1, 2, ((0, 2),)), r"entry 2 out of range for GF\(2\)"),
])
def test_fq_matrix_checks_its_entries(args, message):
    with pytest.raises(ValueError, match=message):
        FqMatrix(*args)


def test_codes_check_their_generators():
    g = FqMatrix.identity(F2, 2)
    with pytest.raises(ValidationError, match="shape or field mismatch"):
        MatrixCode(F2, 2, 3, (g,))
    with pytest.raises(ValidationError, match="shape or field mismatch"):
        MatrixCode(make_field(3), 2, 2, (g,))
    with pytest.raises(ValidationError, match="linearly dependent"):
        MatrixCode(F2, 2, 2, (g, g))
    with pytest.raises(UnsupportedOrder, match="characteristic mismatch"):
        VectorCode(F2, make_field(9), 2, ())
    with pytest.raises(UnsupportedOrder, match="prime base fields"):
        VectorCode(make_field(4), make_field(4), 2, ())
    with pytest.raises(ValidationError, match="generator length mismatch"):
        vector_code(2, 3, 2, [(1, 2, 3)])
    with pytest.raises(ValidationError, match="dependent over the extension"):
        vector_code(2, 3, 2, [(1, 2), (1, 2)])


def test_paving_spec_checks_its_collection(lat23, lat24):
    with pytest.raises(InvalidCollection, match="need 1 <= k <= n-1, got k=3"):
        PavingSpec(lat23, 3, frozenset())
    with pytest.raises(InvalidCollection, match="has dimension 1, expected 2"):
        paving_spec(lat23, 2, [1])
    planes = [i for i in range(lat24.size) if lat24.dims[i] == 2][:2]
    with pytest.raises(InvalidCollection, match="intersect in dimension 1 > k-2"):
        paving_spec(lat24, 2, planes)
