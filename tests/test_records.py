"""The value classes against the dataclasses they replaced.

Each class must answer ``==``, ``!=``, ``hash`` and ``repr`` as its
reference dataclass in ``oracles.py`` does when that holds the same field
values, refuse assignment and deletion the same way when frozen, and
survive a pickle round trip.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass
from functools import lru_cache
from inspect import signature
from itertools import product
from random import Random

import pytest

from adequate import (
    Alphabet,
    CandidateSets,
    Formula,
    Mode,
    Sidedness,
    Unary,
    candidate_sets,
    evaluate,
    extract_morphism,
    from_json,
    parse,
    prune,
    to_json,
    trivial_tree,
)
from adequate.generate import random_tree
from oracles import DATACLASS_REFERENCES, dataclass_reference
from strategies import MODES

_TEXTS = ["", "a", "b", "ab", "(a)+", "(b)+(a)+", "(a)+(b)+", "(a(b)*)+a", "((a)+b)*ab", "ab(a)*", "(a)+a"]


def _factors(formula: Formula):
    for factor in formula.factors:
        yield factor
        if type(factor) is Unary:
            yield factor.body
            yield from _factors(factor.body)


@lru_cache(maxsize=None)
def _samples() -> dict[type, list]:
    ab, abc = Alphabet.from_string("ab"), Alphabet.from_string("abc")
    formulas = [parse(text, ab) for text in _TEXTS] + [parse("(c)+a", abc), parse("(a)+", abc)]
    # Built from factors: equal to the parsed ones, but not the same objects.
    formulas += [Formula(f.factors, f.alphabet) for f in formulas[:6]]
    factors = [x for f in formulas for x in _factors(f)]
    rng = Random(1111)
    trees = [evaluate(f) for f in formulas] + [random_tree(rng, k, ab) for k in (0, 3, 12, 12)]
    trees += [trivial_tree(abc)] + [from_json(to_json(t)) for t in trees]
    pairs = list(product(trees[:10], repeat=2))
    by_class: dict[type, list] = {cls: [] for cls in DATACLASS_REFERENCES}
    for value in [
        ab,
        abc,
        Alphabet.from_string("ab"),
        Alphabet(("b", "a")),
        *formulas,
        *factors,
        *trees,
        *map(prune, trees),
        *(candidate_sets(x, y) for x, y in pairs),
        *(w for x, y in pairs if (w := extract_morphism(x, y)) is not None),
        Mode(),
        Mode(sidedness=Sidedness.LEFT),
        Mode(semigroup=True, swap_sided_ops=True),
        *MODES,
    ]:
        by_class[type(value)].append(value)
    return by_class


def _all_samples():
    return [(cls, value) for cls, values in _samples().items() for value in values]


def test_every_class_has_equal_and_unequal_samples():
    assert set(_samples()) == set(DATACLASS_REFERENCES)
    for cls, values in _samples().items():
        assert not is_dataclass(cls)
        refs = [dataclass_reference(v) for v in values]
        assert any(a == b and a is not b for a, b in product(values, repeat=2)), cls
        assert any(a != b for a, b in product(refs, repeat=2)), cls


@pytest.mark.parametrize("cls", list(DATACLASS_REFERENCES), ids=lambda cls: cls.__name__)
def test_equality_matches_the_dataclass(cls):
    values = _samples()[cls]
    others = [samples[0] for other, samples in _samples().items() if other is not cls]
    for a, b in product(values, repeat=2):
        ra, rb = dataclass_reference(a), dataclass_reference(b)
        assert (a == b) is (ra == rb) and (b == a) is (rb == ra)
        assert (a != b) is (ra != rb) and (b != a) is (rb != ra)
    for a in values:
        ra = dataclass_reference(a)
        assert a.__eq__(ra) is NotImplemented and a != ra and ra != a
        for other in others:
            assert a.__eq__(other) is NotImplemented
            assert ra.__eq__(dataclass_reference(other)) is NotImplemented
            assert not a == other and a != other and other != a


def test_hash_and_repr_match_the_dataclass():
    for cls, value in _all_samples():
        ref = dataclass_reference(value)
        assert repr(value) == repr(ref)
        if cls is CandidateSets:
            for unhashable in (value, ref):
                with pytest.raises(TypeError):
                    hash(unhashable)
        else:
            assert hash(value) == hash(ref)


def test_frozen_classes_refuse_assignment_and_deletion():
    for cls, value in _all_samples():
        ref = dataclass_reference(value)
        names = [field.name for field in fields(ref)] + ["other"]
        if cls is CandidateSets:
            # Not frozen, as its reference is not: a copy takes assignment.
            copy = CandidateSets(value.masks, value.target_count)
            copy.target_count = ref.target_count = -1
            assert repr(copy) == repr(ref)
            continue
        before = repr(value)
        for name in names:
            errors = []
            for target in (value, ref):
                with pytest.raises(FrozenInstanceError) as assign:
                    setattr(target, name, 0)
                with pytest.raises(FrozenInstanceError) as delete:
                    delattr(target, name)
                errors.append((str(assign.value), str(delete.value)))
            assert errors[0] == errors[1]
        assert repr(value) == before


def test_pickle_round_trip():
    for cls, value in _all_samples():
        again = pickle.loads(pickle.dumps(value))
        assert type(again) is cls and again == value and repr(again) == repr(value)
        if cls is not CandidateSets:
            assert hash(again) == hash(value)


@pytest.mark.parametrize("cls", list(DATACLASS_REFERENCES), ids=lambda cls: cls.__name__)
def test_constructors_and_fields_match_the_dataclass(cls):
    ref = DATACLASS_REFERENCES[cls]

    def shape(c):
        return [(p.name, p.kind, p.default) for p in signature(c).parameters.values()]

    assert shape(cls) == shape(ref)
    assert cls.__match_args__ == ref.__match_args__ == tuple(f.name for f in fields(ref))
    assert (cls.__hash__ is None) is (ref.__hash__ is None)
