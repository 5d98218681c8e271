"""The package's record types: immutable, equal with equal hashes when their
fields are, still checking the input that they validate, and refusing the
tuple `+` and `*`."""

import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

from cuspidal.classgroup import ClassGroupResult, OrderMatrices, class_group, order_matrices
from cuspidal.curve import Cusp, CuspDivisor, Level, cusps
from cuspidal.eta import EtaQuotient, LigozatReport, check_modular_function
from cuspidal.jacobian import TorsionResult, generalized_torsion
from cuspidal.linalg import AbelianGroup, IntMatrix, QmodZ, SmithDecomposition, smith_normal_form
from cuspidal.transform import (
    CuspExpansion,
    LeadingCoeff,
    NumericLeadingCoeff,
    SigmaMatrix,
    cusp_expansion,
    numeric_leading_coefficient,
    sigma_matrix,
)
from cuspidal.verify import CheckResult, check_mazur_orders

H = EtaQuotient.make(25, {1: -1, 25: 1})
SIGMA = sigma_matrix(5, 2, 1)

# record type -> (a function building one record afresh, field tuples it refuses)
RECORDS = {
    Cusp: (lambda: cusps(12)[1], []),
    Level: (lambda: Level.of({2: 2, 3: 1}), []),
    CuspDivisor: (lambda: CuspDivisor.make(12, {1: 1, 12: -1}), []),
    QmodZ: (lambda: QmodZ.of(3, 8), [(Fraction(1),), (Fraction(-1, 2),)]),
    SmithDecomposition: (lambda: smith_normal_form(IntMatrix([[2, 4], [6, 8]])), []),
    AbelianGroup: (lambda: AbelianGroup((2, 6)), [((1,),), ((4, 6),), ((2.5,),)]),
    EtaQuotient: (lambda: EtaQuotient.make(25, {1: -1, 25: 1}), []),
    LigozatReport: (lambda: check_modular_function(EtaQuotient.make(5, {1: -6, 5: 6})), []),
    ClassGroupResult: (lambda: class_group(5, 2), []),
    OrderMatrices: (lambda: order_matrices(5, 2), []),
    TorsionResult: (lambda: generalized_torsion(5, 2), []),
    LeadingCoeff: (lambda: LeadingCoeff.make(Fraction(1, 3), {5: 1}), []),
    SigmaMatrix: (lambda: sigma_matrix(5, 2, 1), [(1, 0, 0, 0), (0, 1, 1, 0)]),
    CuspExpansion: (lambda: cusp_expansion(H, SIGMA), []),
    NumericLeadingCoeff: (lambda: numeric_leading_coefficient(H, SIGMA, cusp_expansion(H, SIGMA)), []),
    CheckResult: (check_mazur_orders, []),
}


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_record_is_immutable_equal_by_fields_and_validated(record_type):
    build, refused = RECORDS[record_type]
    record, again = build(), build()
    assert type(record) is record_type and record is not again
    for name in record_type.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    same = [again]
    if record_type is Level:
        # equality and hash go by N and its factors only
        same.append(Level(12, ((2, 2), (3, 1)), primes=(), degrees=MappingProxyType({}), valuations=()))
        assert record != Level.of({2: 1, 3: 2})
    for other in same:
        assert record == other and not record != other and hash(record) == hash(other)
    for fields in refused:
        with pytest.raises(ValueError):
            record_type(*fields)


@pytest.mark.parametrize("record_type", RECORDS, ids=lambda t: t.__name__)
def test_record_refuses_tuple_concatenation_and_repetition(record_type):
    record = RECORDS[record_type][0]()
    for operation in (
        lambda: record + record,
        lambda: record + (),
        lambda: () + record,
        lambda: 3 * record,
        lambda: record * 3,
    ):
        with pytest.raises(TypeError):
            operation()
    # the named tuple class, like any subclass of it, belongs to the module that defines the record
    for cls in record_type.__mro__[:-2]:
        assert getattr(sys.modules[cls.__module__], record_type.__name__) is record_type
