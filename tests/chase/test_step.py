"""Single chase-step tests."""

import pytest

from repro.chase.step import apply_egd_step, apply_step, apply_tgd_step
from repro.lang.atoms import Atom
from repro.lang.errors import ChaseFailure
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraint, parse_instance
from repro.lang.terms import Constant, Null, NullFactory, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b = Constant("a"), Constant("b")


class TestTGDStep:
    def test_adds_grounded_head(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_tgd_step(inst, tgd, {x: a}, nulls=NullFactory(start=900))
        assert step.new_facts == (Atom("E", (a, Null(900))),)
        assert step.new_nulls == (Null(900),)
        assert Atom("E", (a, Null(900))) in inst

    def test_full_tgd_creates_no_nulls(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        step = apply_tgd_step(inst, tgd, {x: a, y: b})
        assert step.new_nulls == ()
        assert Atom("E", (b, a)) in inst

    def test_duplicate_head_atoms_not_reported(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,a)")
        step = apply_tgd_step(inst, tgd, {x: a, y: a})
        assert step.new_facts == ()

    def test_assignment_frozen_deterministically(self):
        tgd = parse_constraint("E(x,y) -> E(y,x)")
        inst = parse_instance("E(a,b)")
        step = apply_tgd_step(inst, tgd, {y: b, x: a})
        assert step.assignment == (("x", a), ("y", b))
        assert step.assignment_dict() == {x: a, y: b}


class TestEGDStep:
    def test_null_substituted_by_constant(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b). E(a,?n1)")
        binding = {Variable("u"): a, Variable("v"): b, Variable("w"): Null(1)}
        step = apply_egd_step(inst, egd, binding)
        assert step.substitution == (Null(1), b)
        assert inst == parse_instance("E(a,b)")

    def test_prefers_removing_the_null(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,?n1). E(a,b)")
        binding = {Variable("u"): a, Variable("v"): Null(1), Variable("w"): b}
        step = apply_egd_step(inst, egd, binding)
        assert step.substitution == (Null(1), b)

    def test_two_constants_fail(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b). E(a,c)")
        binding = {Variable("u"): a, Variable("v"): b,
                   Variable("w"): Constant("c")}
        with pytest.raises(ChaseFailure):
            apply_egd_step(inst, egd, binding)

    def test_failure_names_constants_in_canonical_order(self):
        """The reason must not depend on which side the trigger bound
        first (the reference engine's order follows the string-hash
        seed)."""
        egd = parse_constraint("e: E(u,v), E(u,w) -> v = w")
        c, seven = Constant("c"), Constant(7)
        for left, right in ((b, c), (c, b)):
            with pytest.raises(ChaseFailure) as failure:
                apply_egd_step(parse_instance("E(a,b). E(a,c)"), egd,
                               {Variable("u"): a, Variable("v"): left,
                                Variable("w"): right})
            assert str(failure.value) == \
                "EGD e equates distinct constants b and c"
        # Canonical JSON text order: a string's quote sorts before a
        # digit, so "b" comes before 7 whichever side binds it.
        for left, right in ((b, seven), (seven, b)):
            with pytest.raises(ChaseFailure) as failure:
                apply_egd_step(Instance([Atom("E", (a, b)),
                                         Atom("E", (a, seven))]), egd,
                               {Variable("u"): a, Variable("v"): left,
                                Variable("w"): right})
            assert str(failure.value).endswith("constants b and 7")

    def test_equal_values_rejected(self):
        egd = parse_constraint("E(u,v), E(u,w) -> v = w")
        inst = parse_instance("E(a,b)")
        binding = {Variable("u"): a, Variable("v"): b, Variable("w"): b}
        with pytest.raises(ValueError):
            apply_egd_step(inst, egd, binding)


class TestDispatch:
    def test_apply_step_dispatches(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_step(inst, tgd, {x: a})
        assert step.constraint is tgd
        assert not step.oblivious

    def test_describe_mentions_constraint(self):
        tgd = parse_constraint("lbl: S(x) -> E(x,y)")
        inst = parse_instance("S(a)")
        step = apply_step(inst, tgd, {x: a}, oblivious=True)
        assert "lbl" in step.describe()
        assert "*" in step.describe()
