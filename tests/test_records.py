"""Value semantics of the package's record classes: ``repr``, equality,
hashing, refused assignment, copies, pickles and ``vars``, pinned on fixed
values so a change of how the records are declared cannot change them."""

from __future__ import annotations

import copy
import pickle

import pytest

from photongraph.compiler import SetupPlan
from photongraph.feasibility import HallWitness, TutteWitness
from photongraph.graph import Edge
from photongraph.matching import Factorization, LayerReport
from photongraph.networks import EnsembleReport
from photongraph.states import QuantumState

EDGE = Edge("e1", "a", "b", 1, 0, 0.5, 0.25)
EDGE_REPR = "Edge(id='e1', u='a', v='b', mode_u=1, mode_v=0, amp_mag=0.5, amp_phase_rad=0.25, layer=None)"

# name -> (make, fields, one field changed, repr, frozen)
RECORDS = {
    "Edge": (
        lambda **f: Edge(**f),
        dict(id="e1", u="a", v="b", mode_u=1, mode_v=0, amp_mag=0.5, amp_phase_rad=0.25, layer=None),
        {"mode_v": 2},
        EDGE_REPR,
        True,
    ),
    "QuantumState": (
        lambda **f: QuantumState(**f),
        dict(terms={(0, 1): 0.5 + 0.5j, (1, 0): -0.25}, normalized=True),
        {"normalized": False},
        "QuantumState(terms={(0, 1): (0.5+0.5j), (1, 0): -0.25}, normalized=True)",
        False,
    ),
    "SetupPlan": (
        lambda **f: SetupPlan(**f),
        dict(detectors=("a", "b"), layers=((EDGE,),), wiring={"a": ("e1",), "b": ("e1",)}),
        {"detectors": ("b", "a")},
        f"SetupPlan(detectors=('a', 'b'), layers=(({EDGE_REPR},),), wiring={{'a': ('e1',), 'b': ('e1',)}})",
        False,
    ),
    "HallWitness": (
        lambda **f: HallWitness(**f),
        dict(subset_w=("x0", "x1"), neighborhood=("y0",)),
        {"neighborhood": ("y1",)},
        "HallWitness(subset_w=('x0', 'x1'), neighborhood=('y0',))",
        True,
    ),
    "TutteWitness": (
        lambda **f: TutteWitness(**f),
        dict(subset_u=("a",), odd_components=(("b",), ("c", "d", "e"))),
        {"subset_u": ()},
        "TutteWitness(subset_u=('a',), odd_components=(('b',), ('c', 'd', 'e')))",
        True,
    ),
    "Factorization": (
        lambda **f: Factorization(**f),
        dict(factors=(("e0", "e5"), ("e1", "e4"))),
        {"factors": (("e0", "e5"),)},
        "Factorization(factors=(('e0', 'e5'), ('e1', 'e4')))",
        True,
    ),
    "LayerReport": (
        lambda **f: LayerReport(**f),
        dict(layer_matchings=(("e0", "e5"),), maverick_matchings=(("e1", "e4"),)),
        {"maverick_matchings": ()},
        "LayerReport(layer_matchings=(('e0', 'e5'),), maverick_matchings=(('e1', 'e4'),))",
        True,
    ),
    "EnsembleReport": (
        lambda **f: EnsembleReport(**f),
        dict(n=4, p=0.5, trials=10, seed=1, pm_exists_fraction=0.6, pm_count_histogram={0: 4, 1: 6}),
        {"seed": 2},
        "EnsembleReport(n=4, p=0.5, trials=10, seed=1, pm_exists_fraction=0.6, "
        "pm_count_histogram={0: 4, 1: 6})",
        False,
    ),
}
FROZEN = sorted(name for name, spec in RECORDS.items() if spec[4])
MUTABLE = sorted(name for name, spec in RECORDS.items() if not spec[4])


def _pair(name):
    make, fields, change, _, _ = RECORDS[name]
    return make(**fields), make(**{**fields, **change})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    make, fields, _, text, _ = RECORDS[name]
    assert repr(make(**fields)) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_positional_and_keyword_construction_agree(name):
    make, fields, _, _, _ = RECORDS[name]
    cls = type(make(**fields))
    assert cls(*fields.values()) == make(**fields)
    assert list(vars(cls(*fields.values()))) == list(fields)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_follows_every_field(name):
    make, fields, _, _, _ = RECORDS[name]
    record, changed = _pair(name)
    assert record == make(**fields) and not record != make(**fields)
    assert record != changed and not record == changed
    assert record != tuple(fields.values())


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_value_and_refuse_assignment(name):
    make, fields, _, _, _ = RECORDS[name]
    record = make(**fields)
    assert hash(record) == hash(make(**fields))
    assert len({record, make(**fields)}) == 1
    field = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == make(**fields)


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable_and_assignable(name):
    record, changed = _pair(name)
    with pytest.raises(TypeError):
        hash(record)
    for field, value in RECORDS[name][2].items():
        setattr(record, field, value)
    assert record == changed


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copies_and_pickles_round_trip(name):
    make, fields, _, text, _ = RECORDS[name]
    record = make(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record and repr(clone) == text
    assert copy.copy(record) is not record


def test_defaults():
    assert Edge("e0", "a", "b") == Edge("e0", "a", "b", 0, 0, 1.0, 0.0, None)
    first, second = QuantumState(), QuantumState()
    assert first.terms == {} and first.normalized is False
    first.terms[(0,)] = 1.0
    assert second.terms == {}


def test_vars_of_the_records_the_cli_prints():
    for name in ("HallWitness", "TutteWitness", "EnsembleReport"):
        make, fields, _, _, _ = RECORDS[name]
        assert vars(make(**fields)) == fields
        assert list(vars(make(**fields))) == list(fields)
