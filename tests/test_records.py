"""The six value types, the five result records and the polynomial oracle,
all behave like frozen dataclasses."""

import copy
import pickle
from fractions import Fraction as F

import pytest

import powersum_denoms
from powersum_denoms import (
    BernoulliTable,
    DigitExpansion,
    EpsilonVector,
    FaulhaberForm,
    MarbleWitness,
    RationalPolynomial,
    SquarefreeProduct,
    faulhaber_form,
    marble_witness,
    q_n_epsilon,
    q_n_formula,
    shifted_power_sum_poly,
)
from powersum_denoms._record import Record

# (computed, built by hand, a different value of the same type, repr)
RECORDS = [
    (
        DigitExpansion(3, (2, 0, 2)),
        DigitExpansion(p=3, digits=(2, 0, 2)),
        DigitExpansion(3, (2, 1)),
        "DigitExpansion(p=3, digits=(2, 0, 2))",
    ),
    (
        marble_witness(21, 11),
        MarbleWitness(11, 21, 1, 10, beta_digits=DigitExpansion(11, (10,))),
        marble_witness(31, 11),
        "MarbleWitness(p=11, m=21, j=1, b=10, beta_digits=DigitExpansion(p=11, digits=(10,)))",
    ),
    (
        q_n_formula(20),
        SquarefreeProduct(primes=(2, 3, 5, 11), value=330),
        q_n_formula(19),
        "SquarefreeProduct(primes=(2, 3, 5, 11), value=330)",
    ),
    (
        q_n_epsilon(4),
        EpsilonVector(n=4, exponents={2: 1, 3: 1}),
        q_n_epsilon(5),
        "EpsilonVector(n=4, exponents={2: 1, 3: 1})",
    ),
    (
        faulhaber_form(4),
        FaulhaberForm(4, 30, (0, -1, 0, 10, 15, 6)),
        faulhaber_form(3),
        "FaulhaberForm(n=4, denominator=30, coeffs=(0, -1, 0, 10, 15, 6))",
    ),
    (
        shifted_power_sum_poly(4),
        RationalPolynomial([0, F(-1, 30), 0, F(1, 3), F(1, 2), F(1, 5)]),
        shifted_power_sum_poly(3),
        "RationalPolynomial([Fraction(0, 1), Fraction(-1, 30), Fraction(0, 1), "
        "Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)])",
    ),
]
IDS = [type(r[0]).__name__ for r in RECORDS]

FIELDS = {
    DigitExpansion: ("p", "digits"),
    MarbleWitness: ("p", "m", "j", "b", "beta_digits"),
    SquarefreeProduct: ("primes", "value"),
    EpsilonVector: ("n", "exponents"),
    FaulhaberForm: ("n", "denominator", "coeffs"),
    RationalPolynomial: ("coeffs",),
}


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_repr_and_equality(record, same, other, text):
    assert repr(record) == repr(same) == text
    assert record == same and not record != same
    assert record != other
    fields = tuple(getattr(record, name) for name in FIELDS[type(record)])
    assert record != fields
    for _, foreign, _, _ in RECORDS:
        if type(foreign) is not type(record):
            assert record != foreign


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_hash_follows_the_fields(record, same, other, text):
    if isinstance(record, EpsilonVector):
        # Its exponents are a dict, so, as with the frozen dataclass, hashing
        # fails on the field rather than falling back to identity.
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        return
    assert hash(record) == hash(same)
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, same, other, text):
    name = FIELDS[type(record)][0]
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == value and record == same


@pytest.mark.parametrize("record, same, other, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(record, same, other, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record) and restored == record
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record
    if isinstance(record, EpsilonVector):
        assert copy.deepcopy(record).exponents is not record.exponents


def test_construction_takes_exactly_the_fields():
    with pytest.raises(TypeError):
        DigitExpansion(3)
    with pytest.raises(TypeError):
        DigitExpansion(3, (1,), 4)
    with pytest.raises(TypeError):
        DigitExpansion(3, p=3)
    with pytest.raises(TypeError):
        DigitExpansion(3, digit=(1,))


def test_every_exported_value_type_is_a_record_with_a_row():
    # BernoulliTable is the one exported class that is not a value: it grows.
    exported = [getattr(powersum_denoms, name) for name in powersum_denoms.__all__]
    values = {obj for obj in exported if isinstance(obj, type)} - {BernoulliTable}
    assert BernoulliTable in exported
    assert [cls for cls in values if not issubclass(cls, Record)] == []
    assert values == {type(row[0]) for row in RECORDS} == FIELDS.keys()
