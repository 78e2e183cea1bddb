"""Tests for satisfaction and trigger search."""

from repro.homomorphism.extend import (all_satisfied,
                                       constraint_satisfied_for,
                                       head_extends, is_satisfied,
                                       violation)
from repro.lang.parser import (parse_constraint, parse_constraints,
                               parse_instance)
from repro.lang.terms import Constant, Variable

x, y = Variable("x"), Variable("y")
a, b = Constant("a"), Constant("b")


class TestHeadExtension:
    def test_extends_when_witness_exists(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(a,b)")
        assert head_extends(tgd, inst, {x: a})

    def test_fails_without_witness(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a). E(b,a)")
        assert not head_extends(tgd, inst, {x: a})


class TestViolation:
    def test_satisfied_constraint_has_no_trigger(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        assert violation(tgd, parse_instance("S(a). E(a,b)")) is None
        assert is_satisfied(tgd, parse_instance("S(a). E(a,b)"))

    def test_violated_tgd(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        trigger = violation(tgd, parse_instance("S(a)"))
        assert trigger == {x: a}

    def test_violated_egd(self):
        egd = parse_constraint("E(x,y), E(x,z) -> y = z")
        trigger = violation(egd, parse_instance("E(a,b). E(a,c)"))
        assert trigger is not None
        assert trigger[egd.lhs] != trigger[egd.rhs]

    def test_satisfied_egd(self):
        egd = parse_constraint("E(x,y), E(x,z) -> y = z")
        assert is_satisfied(egd, parse_instance("E(a,b). E(c,b)"))

    def test_all_satisfied(self):
        sigma = parse_constraints("S(x) -> E(x,y); E(x,y) -> E(y,x)")
        assert all_satisfied(sigma, parse_instance("S(a). E(a,b). E(b,a)"))
        assert not all_satisfied(sigma, parse_instance("S(a)"))


class TestSatisfactionForParameters:
    def test_tgd_trivially_satisfied_when_body_absent(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("E(a,b)")
        assert constraint_satisfied_for(tgd, inst, {x: a})

    def test_tgd_violated_for_specific_parameters(self):
        tgd = parse_constraint("S(x) -> E(x,y)")
        inst = parse_instance("S(a). S(b). E(b,a)")
        assert not constraint_satisfied_for(tgd, inst, {x: a})
        assert constraint_satisfied_for(tgd, inst, {x: b})

    def test_egd_for_parameters(self):
        egd = parse_constraint("E(x,y), E(x,z) -> y = z")
        inst = parse_instance("E(a,b). E(a,c)")
        binding = {egd.body[0].args[0]: a, egd.lhs: Constant("b"),
                   egd.rhs: Constant("c")}
        binding[Variable("x")] = a
        assert not constraint_satisfied_for(egd, inst, binding)
