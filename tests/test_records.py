"""The records the library returns are immutable values.

Each compares and hashes by value and refuses attribute assignment; the ones
that validate their fields refuse bad ones with a fixed message.
"""

from fractions import Fraction

import pytest

from torelli import borel
from torelli.borel import BorelConstant, root_system
from torelli.graded import HilbertSeries
from torelli.groups import Generator, GroupForm
from torelli.invariants import GradedVCopies, InvariantReport, OracleResult
from torelli.lclasses import IndexGeneratorMap, IndexMapEntry
from torelli.mt import KappaGenerator


def _entry(scalar=Fraction(-1, 4)):
    return IndexMapEntry("ph_1", 4, scalar, "kappa_L3", 4)


# name -> (a field, a value, another value); each call builds a new instance
RECORDS = {
    "BorelConstant": ("value", lambda: BorelConstant(3), lambda: BorelConstant(3, capped=True)),
    "HilbertSeries": (
        "coefficients",
        lambda: HilbertSeries((1, 0, 2)),
        lambda: HilbertSeries((1, 0, 3)),
    ),
    "GroupForm": ("sign", lambda: GroupForm(2, -1), lambda: GroupForm(2, 1)),
    "Generator": ("move", lambda: Generator((), ((1, 1), (0, 1))), lambda: Generator((), ((1, -1), (0, 1)))),
    "GradedVCopies": ("g", lambda: GradedVCopies(1, (1, 3)), lambda: GradedVCopies(1, (3, 1))),
    "OracleResult": (
        "route",
        lambda: OracleResult(1, (2, 1, 1), "modp"),
        lambda: OracleResult(1, (2, 1, 1), "rational"),
    ),
    "InvariantReport": (
        "oracle",
        lambda: InvariantReport(8, 2, (1, 0), (1, 0), (None, None)),
        lambda: InvariantReport(8, 2, (1, 0), (1, 0), (1, 0)),
    ),
    "IndexMapEntry": ("scalar", _entry, lambda: _entry(Fraction(1, 4))),
    "IndexGeneratorMap": (
        "entries",
        lambda: IndexGeneratorMap(4, "even", (_entry(),)),
        lambda: IndexGeneratorMap(4, "odd", (_entry(),)),
    ),
    "KappaGenerator": (
        "with_euler",
        lambda: KappaGenerator(2, (0, 1), False),
        lambda: KappaGenerator(2, (0, 1), True),
    ),
    # past the per-(family, g) cache, so that every call builds an instance
    "RootSystem": (
        "rho",
        lambda: root_system.__wrapped__("C", 3),
        lambda: root_system.__wrapped__("D", 3),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    field, make, make_other = RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and getattr(a, field) == getattr(b, field)


# message -> a call that raises ValueError with it
INVALID = {
    "series needs at least the degree-0 coefficient": lambda: HilbertSeries(()),
    "series coefficients must be nonnegative": lambda: HilbertSeries((1, -1)),
    "an algebra series starts with coefficient 1": lambda: HilbertSeries((2, 1)),
    "genus must be positive": lambda: GroupForm(0, 1),
    "sign must be +1 or -1": lambda: GroupForm(1, 0),
    "g must be positive": lambda: GradedVCopies(0, (2,)),
    "copy degrees must be positive": lambda: GradedVCopies(1, (2, 0)),
    "index map entries must preserve degree": (
        lambda: IndexMapEntry("ph_1", 4, Fraction(1), "kappa_L9", 8)
    ),
    "exponent vector does not match the index set": lambda: KappaGenerator(2, (1,), False),
    "negative exponent": lambda: KappaGenerator(2, (1, -1), True),
    "mu-generators need positive weight": lambda: KappaGenerator(2, (0, 0), True),
    "lambda-generators need weight above 2n": lambda: KappaGenerator(2, (1, 0), False),
}


@pytest.mark.parametrize("message", INVALID)
def test_validating_records_keep_their_messages(message):
    with pytest.raises(ValueError) as info:
        INVALID[message]()
    assert str(info.value) == message


def test_root_system_tables_are_computed_once_per_instance(monkeypatch):
    # every table is a field, built in one pass by root_system: the top
    # sums of the g simple-root coordinates and the top heights, g + 1
    # calls, and none when a constant reads them
    calls = []
    top_sums = borel._top_sums

    def counted(values):
        calls.append(1)
        return top_sums(values)

    monkeypatch.setattr(borel, "_top_sums", counted)
    rs = root_system.__wrapped__("C", 3)
    assert len(calls) == 4
    assert not hasattr(rs, "__dict__")
    borel.borel_constant_rep(rs, 1, 8)
    assert len(calls) == 4
    fresh = root_system.__wrapped__("C", 3)
    assert len(calls) == 8
    assert rs == fresh and hash(rs) == hash(fresh)
    assert rs.top_sums == fresh.top_sums and rs.top_sums is not fresh.top_sums
    assert root_system("C", 3) is root_system("C", 3)
