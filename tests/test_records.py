"""The result records are plain classes on one base (lattice.Record); each
must behave as the @dataclass it replaced.  The oracle is a
dataclasses.dataclass twin of every record, built from the old field list:
same signature, the same repr of a sample, == and != on equal and unequal
fields and against the twin's class, unhashability, and a fresh dict per
instance for the fields that had default_factory=dict.  AbelianGroupShape,
the interning key, is the frozen twin: hashable on (free_rank, torsion) and
immutable.
"""

import dataclasses
import inspect

import pytest

from monoidforge.acceptance import CriterionResult
from monoidforge.algebra import UnitsDescription, Verdict
from monoidforge.closure import ClosureResult, SnFaceStructure
from monoidforge.conductor import (
    AbelianGroupData,
    ConductorData,
    PicardResult,
    SK0Certificate,
)
from monoidforge.ideals import FiltrationIdeal, PrimeDecomposition, RadicalResult
from monoidforge.lattice import AbelianGroupShape, Record, SolveResult
from monoidforge.monoid import Membership
from monoidforge.squares import CartesianReport, MilnorSquare, ReducedIsoReport

FACTORY = object()  # marks a field that had default_factory=dict

# record -> its dataclass fields in order: a bare name, or (name, default)
RECORDS = {
    Membership: ["status", ("witness", None), ("note", "")],
    SolveResult: ["status", ("coeffs", None), ("note", "")],
    ClosureResult: ["monoid", "added", "certificates", "kind"],
    SnFaceStructure: ["monoid", "sn", "faces", "subgroups", "slice_bound", ("report", FACTORY)],
    RadicalResult: ["ideal", "method", "bound", "power_certificates"],
    PrimeDecomposition: ["ideal", "primes", "degree_bound", ("irredundancy_witnesses", FACTORY)],
    FiltrationIdeal: ["host", "k", "ideal", "degree_bound"],
    Verdict: ["value", "basis", ("witness", None), ("search_bounds", None)],
    UnitsDescription: ["field_kind", "unit_monoid_generators", "note"],
    MilnorSquare: [
        "kind", "corners", "maps", "surjective_legs", "ring", ("description", FACTORY)
    ],
    CartesianReport: [
        "ok", "degree_bound", "ring_kind", "method", "per_degree", ("witness", None), ("note", "")
    ],
    ReducedIsoReport: [
        "ok", "degree_bound", "per_degree", "nil_generators_a", "nil_generators_b"
    ],
    AbelianGroupData: ["order", "invariants", "generators", ("note", "")],
    ConductorData: ["semigroup", "q", "conductor_exponent", "a_mod", "b_mod"],
    PicardResult: ["semigroup", "q", "order", "invariants", "reasons", ("witness", None)],
    SK0Certificate: ["semigroup", "q", "slots", "verdict", "exactness_note"],
    CriterionResult: ["ident", "description", "passed", "detail", "elapsed"],
}


SHAPE_FIELDS = ["free_rank", ("torsion", ())]


def twin(cls, specs, frozen=False):
    fields = []
    for spec in specs:
        if isinstance(spec, str):
            fields.append((spec, object))
        elif spec[1] is FACTORY:
            fields.append((spec[0], object, dataclasses.field(default_factory=dict)))
        else:
            fields.append((spec[0], object, dataclasses.field(default=spec[1])))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)


def sample(cls):
    """Fresh, equal field values: the i-th field is the list [i]."""
    return [[i] for i in range(len(cls._fields))]


def test_every_record_is_listed():
    assert set(Record.__subclasses__()) == set(RECORDS) | {AbelianGroupShape}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_behaves_as_its_dataclass(cls):
    Twin = twin(cls, RECORDS[cls])
    assert cls._fields == tuple(f.name for f in dataclasses.fields(Twin))

    # signature: names, kinds and defaults; a factory default is None here
    ours = inspect.signature(cls).parameters
    theirs = inspect.signature(Twin).parameters
    assert list(ours) == list(theirs)
    for f, p in zip(dataclasses.fields(Twin), theirs.values()):
        want = None if f.default_factory is not dataclasses.MISSING else p.default
        assert (ours[f.name].kind, ours[f.name].default) == (p.kind, want), f.name

    a, t = cls(*sample(cls)), Twin(*sample(cls))
    assert repr(a) == repr(t)
    assert a == cls(*sample(cls)) and not a != cls(*sample(cls))
    assert a != t and not a == t and t != a
    for i in range(len(cls._fields)):
        values = sample(cls)
        values[i] = ["other"]
        assert a != cls(*values) and not a == cls(*values)
        assert (t != Twin(*values)) is (a != cls(*values))
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        hash(t)

    # keyword construction, and a fresh dict for every defaulted factory field
    a = cls(**dict(zip(cls._fields, sample(cls))))
    assert a == cls(*sample(cls))
    required = [s for s in RECORDS[cls] if isinstance(s, str)]
    b, c = cls(*sample(cls)[: len(required)]), cls(*sample(cls)[: len(required)])
    tb = Twin(*sample(cls)[: len(required)])
    assert repr(b) == repr(tb)
    for spec in RECORDS[cls]:
        if not isinstance(spec, str) and spec[1] is FACTORY:
            name = spec[0]
            assert getattr(b, name) == {} and getattr(b, name) is not getattr(c, name)


def test_group_shape_behaves_as_its_frozen_dataclass():
    Twin = twin(AbelianGroupShape, SHAPE_FIELDS, frozen=True)
    ours = inspect.signature(AbelianGroupShape).parameters
    theirs = inspect.signature(Twin).parameters
    assert [(n, p.kind, p.default) for n, p in ours.items()] == [
        (n, p.kind, p.default) for n, p in theirs.items()
    ]
    a, t = AbelianGroupShape(2, (2, 4)), Twin(2, (2, 4))
    assert repr(a) == repr(t) and repr(AbelianGroupShape(3)) == repr(Twin(3))
    assert hash(a) == hash(t) == hash((2, (2, 4)))
    assert a == AbelianGroupShape(2, (2, 4)) and a != t and not a == t
    assert a != AbelianGroupShape(2, (4, 2)) and a != AbelianGroupShape(3, (2, 4))
    assert len({a, AbelianGroupShape(2, (2, 4)), AbelianGroupShape(3)}) == 2
    for shape in (a, t):
        with pytest.raises(AttributeError):
            shape.free_rank = 3
        with pytest.raises(AttributeError):
            shape.torsion = ()
        with pytest.raises(AttributeError):
            del shape.torsion
    assert (a.free_rank, a.torsion, a.dim) == (2, (2, 4), 4)
    with pytest.raises(ValueError):
        AbelianGroupShape(1, (1,))
