"""Record contracts: construction, field-wise ==, hash, repr, immutability.

The records are plain data; these checks pin the behaviour callers rely on,
whatever machinery defines the classes.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from vicbench.noether import PrimeField, SubmoduleState
from vicbench.ordering import InsertionMove, Word
from vicbench.rings import (
    IdealSet,
    QuotientData,
    _fp_parts,
    _FpPart,
    builtin_ring,
    jacobson_radical,
    quotient_by_radical,
)
from vicbench.selftest import CheckResult
from vicbench.wedderburn import Decomposition, build_aw_embedding, semisimple_decompose


def _fields(record, names) -> str:
    return ", ".join(f"{n}={getattr(record, n)!r}" for n in names)


def _frozen_cases():
    """(record, an equal record built by keyword, an unequal one, field names)."""
    z4 = builtin_ring("Z4")
    rad = jacobson_radical(z4)
    q = quotient_by_radical(z4)
    dec = semisimple_decompose(q)
    part = _fp_parts(builtin_ring("F2"))[0]
    return [
        (InsertionMove(1, 2), InsertionMove(a=1, b=2), InsertionMove(2, 2), ("a", "b")),
        (Word(((1,), (2,))), Word(letters=((1,), (2,))), Word(((1,),)), ("letters",)),
        (rad, IdealSet(ring=z4, members=frozenset(rad.members)),
         IdealSet(z4, frozenset({0})), ("ring", "members")),
        (q, QuotientData(source=q.source, ideal=q.ideal, quotient=q.quotient,
                         projection=q.projection, section=q.section,
                         nilpotency=q.nilpotency),
         QuotientData(q.source, q.ideal, q.quotient, q.projection, q.section,
                      q.nilpotency + 1),
         ("source", "ideal", "quotient", "projection", "section", "nilpotency")),
        (dec, Decomposition(q=dec.q, mu=dec.mu, corner_fields=dec.corner_fields,
                            idempotents_bar=dec.idempotents_bar),
         Decomposition(dec.q, dec.mu, (), dec.idempotents_bar),
         ("q", "mu", "corner_fields", "idempotents_bar")),
        (part, _FpPart(p=part.p, dim=part.dim, lmul=part.lmul, one=part.one,
                       element=part.element, lbits=part.lbits),
         _FpPart(part.p, part.dim, part.lmul, part.one, part.element),
         ("p", "dim", "lmul", "one", "element", "lbits")),
    ]


@pytest.mark.parametrize("case", range(6), ids=[
    "InsertionMove", "Word", "IdealSet", "QuotientData", "Decomposition", "_FpPart"])
def test_frozen_record_contract(case):
    record, same, other, names = _frozen_cases()[case]
    assert same is not record
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != tuple(getattr(record, n) for n in names)
    assert repr(record) == f"{type(record).__qualname__}({_fields(record, names)})"
    try:
        values_hash = hash(tuple(getattr(record, n) for n in names))
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == values_hash
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert copy.copy(record) == record


def test_hashable_frozen_records_pickle_and_key_sets():
    moves = {InsertionMove(1, 2), InsertionMove(a=1, b=2), InsertionMove(1, 3)}
    assert moves == {InsertionMove(1, 2), InsertionMove(1, 3)}
    word = Word(((1, None), (2,)))
    assert pickle.loads(pickle.dumps(word)) == word
    assert copy.deepcopy(word) == word
    assert pickle.loads(pickle.dumps(InsertionMove(3, 4))) == InsertionMove(3, 4)


def test_fp_part_defaults():
    part = _FpPart(3, 1, (), (1,), {})
    assert part.lbits is None
    assert part == _FpPart(p=3, dim=1, lmul=(), one=(1,), element={}, lbits=None)


def test_submodule_state_contract():
    emb = build_aw_embedding(builtin_ring("F2"))
    field = PrimeField(2)
    a = SubmoduleState(1, field, emb, (), 2)
    b = SubmoduleState(d=1, field=field, emb=emb, generators=(), horizon=2)
    assert a.bases == {} and a.bases is not b.bases
    assert a == b and not a != b
    a.bases[0] = "basis"
    assert a.bases == {0: "basis"} and b.bases == {}
    assert a != b
    a.horizon = 3
    assert a.horizon == 3
    with pytest.raises(TypeError):
        hash(b)
    names = ("d", "field", "emb", "generators", "horizon", "bases")
    assert repr(b) == f"SubmoduleState({_fields(b, names)})"


def test_check_result_contract():
    res = CheckResult("name", True, 3, "ok")
    assert res.seconds == 0.0
    assert res == CheckResult(name="name", passed=True, checks=3, detail="ok", seconds=0.0)
    res.seconds = 1.5
    assert res != CheckResult("name", True, 3, "ok")
    assert repr(res) == ("CheckResult(name='name', passed=True, checks=3, "
                         "detail='ok', seconds=1.5)")
    with pytest.raises(TypeError):
        hash(res)
