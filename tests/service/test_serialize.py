"""Wire-encoding roundtrips and stability."""

import json

import pytest

from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.terms import Constant, Null, Variable
from repro.service.serialize import (decode_atom, decode_instance,
                                     decode_term, encode_instance,
                                     encode_term, WireError)
from wire_oracle import atom_sort_key, encode_atom


def test_term_roundtrip_preserves_kind_and_type():
    for term in (Constant("a"), Constant(1), Constant(1.5),
                 Constant("1"), Null(7)):
        assert decode_term(encode_term(term)) == term
    # A string constant "1" and an int constant 1 must not collide.
    assert encode_term(Constant("1")) != encode_term(Constant(1))
    # A null and a constant with the same payload must not collide.
    assert encode_term(Null(3)) != encode_term(Constant(3))


def test_atom_roundtrip():
    fact = Atom("E", (Constant("a"), Null(2)))
    assert decode_atom(encode_atom(fact)) == fact


def test_instance_roundtrip():
    facts = [Atom("E", (Constant("a"), Constant("b"))),
             Atom("S", (Null(1),))]
    instance = Instance(facts)
    payload = encode_instance(instance)
    assert set(payload) == {"facts"}
    assert decode_instance(payload) == instance


def test_encoding_is_stable_across_insertion_order():
    facts = [Atom("E", (Constant(f"c{i}"), Constant(f"c{i+1}")))
             for i in range(6)]
    forward = encode_instance(Instance(facts))
    backward = encode_instance(Instance(list(reversed(facts))))
    assert json.dumps(forward) == json.dumps(backward)


def test_atom_sort_key_is_injective_on_tricky_constants():
    # Rendered strings would collide ("S(a, b)" could be one binary or
    # one unary atom over a weird constant); the JSON key must not.
    left = Atom("S", (Constant("a"), Constant("b")))
    right = Atom("S", (Constant("a, b"),))
    assert atom_sort_key(left) != atom_sort_key(right)


def test_malformed_payloads_raise_wire_error():
    with pytest.raises(WireError):
        decode_term(["x", 1])
    with pytest.raises(WireError):
        decode_term("nope")
    with pytest.raises(WireError):
        decode_term("c7")          # 2-char string must not unpack
    with pytest.raises(WireError):
        decode_atom("Sx")
    with pytest.raises(WireError):
        decode_atom({"relation": "S"})
    with pytest.raises(WireError):
        decode_instance(["not", "a", "dict"])
    # Only what encode_term writes: string relation names, constants
    # that are strings, booleans or finite numbers, integer labels.
    for term in (["n", "x"], ["n", True], ["n", 1.0], ["c", [1]],
                 ["c", None], ["c", float("nan")], ["c", float("inf")]):
        with pytest.raises(WireError):
            decode_term(term)
    with pytest.raises(WireError):
        decode_atom([5, [["c", "a"]]])
    for payload in ({}, {"facts": 5}, {"facts": "S(a)"}):
        with pytest.raises(WireError):
            decode_instance(payload)
    with pytest.raises(WireError):
        encode_term(Variable("x"))
    with pytest.raises(WireError):
        encode_term(Constant(object()))
