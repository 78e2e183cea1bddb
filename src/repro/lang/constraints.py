"""Tuple- and equality-generating dependencies (TGDs and EGDs).

Following Section 2 of the paper:

* A **TGD** is a sentence ``forall x (phi(x) -> exists y psi(x, y))``
  where ``phi`` (the body) may be empty, ``psi`` (the head) is
  non-empty, neither side contains equality atoms, and every
  universally quantified variable of the head also occurs in the body.
  Head variables that do not occur in the body are the existentially
  quantified variables.

* An **EGD** is a sentence ``forall x (phi(x) -> x_i = x_j)`` with a
  non-empty, equality-free body in which both ``x_i`` and ``x_j``
  occur.

``pos(alpha)`` denotes the set of positions *in the body* of ``alpha``
(the paper's convention), exposed here as :meth:`Constraint.positions`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.lang.atoms import (Atom, atoms_constants, atoms_positions,
                              atoms_variables, Position)
from repro.lang.errors import SchemaError
from repro.lang.schema import Schema
from repro.lang.terms import Constant, Variable


class Constraint:
    """Common base class for TGDs and EGDs."""

    __slots__ = ("body", "label", "_hash", "_cache")

    body: tuple[Atom, ...]
    label: str | None

    def _cached(self, key: str, compute):
        """Memoize derived, order-insensitive data on the (immutable)
        constraint -- variable sets are recomputed on every chase step
        otherwise (``head_extends`` needs the frontier each time)."""
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cache", cache)
        try:
            return cache[key]
        except KeyError:
            value = cache[key] = compute()
            return value

    @property
    def is_tgd(self) -> bool:
        return isinstance(self, TGD)

    @property
    def is_egd(self) -> bool:
        return isinstance(self, EGD)

    def body_variables(self) -> frozenset[Variable]:
        """Variables of the body (= the universally quantified ones,
        for EGDs and for TGDs together with head-occurring body vars)."""
        return self._cached("body_vars",
                            lambda: frozenset(atoms_variables(self.body)))

    def universal_variables(self) -> frozenset[Variable]:
        """All universally quantified variables (the body variables)."""
        return self.body_variables()

    def positions(self) -> set[Position]:
        """``pos(alpha)``: positions in the body (paper convention)."""
        return atoms_positions(self.body)

    def constants(self) -> set[Constant]:
        raise NotImplementedError

    def display_name(self) -> str:
        return self.label if self.label else str(self)

    def size(self) -> int:
        """``|alpha|``: a simple proxy for the formula length."""
        raise NotImplementedError


class TGD(Constraint):
    """A tuple generating dependency."""

    __slots__ = ("head",)

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom],
                 label: str | None = None) -> None:
        body = tuple(body)
        head = tuple(head)
        if not head:
            raise SchemaError("a TGD must have a non-empty head")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("TGD", body, head)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TGD is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TGD) and self.body == other.body
                and self.head == other.head)

    def __hash__(self) -> int:
        return self._hash

    def head_variables(self) -> frozenset[Variable]:
        return self._cached("head_vars",
                            lambda: frozenset(atoms_variables(self.head)))

    def existential_variables(self) -> frozenset[Variable]:
        """Head variables that do not occur in the body."""
        return self._cached(
            "existential_vars",
            lambda: self.head_variables() - self.body_variables())

    def frontier_variables(self) -> frozenset[Variable]:
        """Body variables that also occur in the head."""
        return self._cached(
            "frontier_vars",
            lambda: self.head_variables() & self.body_variables())

    def head_positions(self) -> set[Position]:
        return atoms_positions(self.head)

    def constants(self) -> set[Constant]:
        return atoms_constants(self.body) | atoms_constants(self.head)

    @property
    def is_full(self) -> bool:
        """A *full* TGD has no existentially quantified variables."""
        return not self.existential_variables()

    def size(self) -> int:
        return (sum(a.arity + 1 for a in self.body)
                + sum(a.arity + 1 for a in self.head))

    def schema(self) -> Schema:
        return Schema.infer(self.body + self.head)

    def __repr__(self) -> str:
        return f"TGD({self.body!r}, {self.head!r})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        head = ", ".join(str(a) for a in self.head)
        return f"{body} -> {head}" if body else f"-> {head}"


class EGD(Constraint):
    """An equality generating dependency ``phi(x) -> x_i = x_j``."""

    __slots__ = ("lhs", "rhs")

    def __init__(self, body: Iterable[Atom], lhs: Variable, rhs: Variable,
                 label: str | None = None) -> None:
        body = tuple(body)
        if not body:
            raise SchemaError("an EGD must have a non-empty body")
        variables = atoms_variables(body)
        for var in (lhs, rhs):
            if not isinstance(var, Variable):
                raise SchemaError(f"EGD equality side {var!r} must be a variable")
            if var not in variables:
                raise SchemaError(
                    f"EGD equality variable {var} must occur in the body")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("EGD", body, lhs, rhs)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("EGD is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, EGD) and self.body == other.body
                and self.lhs == other.lhs and self.rhs == other.rhs)

    def __hash__(self) -> int:
        return self._hash

    def constants(self) -> set[Constant]:
        return atoms_constants(self.body)

    def size(self) -> int:
        return sum(a.arity + 1 for a in self.body) + 2

    def schema(self) -> Schema:
        return Schema.infer(self.body)

    def __repr__(self) -> str:
        return f"EGD({self.body!r}, {self.lhs!r}, {self.rhs!r})"

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{body} -> {self.lhs} = {self.rhs}"


def constraint_set_positions(sigma: Iterable[Constraint]) -> set[Position]:
    """``pos(Sigma)``: union of body positions over the set."""
    out: set[Position] = set()
    for constraint in sigma:
        out.update(constraint.positions())
    return out


def all_positions(sigma: Iterable[Constraint]) -> set[Position]:
    """Every position mentioned anywhere in the set (bodies and heads).

    The dependency/propagation graphs range over positions occurring in
    TGDs, including head-only positions, so this wider universe is
    sometimes needed alongside the paper's body-only ``pos(Sigma)``.
    """
    out: set[Position] = set()
    for constraint in sigma:
        out.update(constraint.positions())
        if isinstance(constraint, TGD):
            out.update(constraint.head_positions())
    return out


def constraint_set_schema(sigma: Iterable[Constraint]) -> Schema:
    """Infer the joint schema of a constraint set."""
    schema = Schema()
    for constraint in sigma:
        atoms: Sequence[Atom] = constraint.body
        schema = schema.merged(Schema.infer(atoms))
        if isinstance(constraint, TGD):
            schema = schema.merged(Schema.infer(constraint.head))
    return schema


def rename_apart(constraint: Constraint, suffix: str) -> Constraint:
    """Return a copy of ``constraint`` with every variable renamed by
    appending ``suffix`` (used to make two constraints variable-disjoint
    in the decision procedures for the firing relations)."""
    mapping = {var: Variable(var.name + suffix)
               for var in constraint.universal_variables()}
    if isinstance(constraint, TGD):
        mapping.update({var: Variable(var.name + suffix)
                        for var in constraint.existential_variables()})
        return TGD((a.substitute(mapping) for a in constraint.body),
                   (a.substitute(mapping) for a in constraint.head),
                   label=constraint.label)
    assert isinstance(constraint, EGD)
    return EGD((a.substitute(mapping) for a in constraint.body),
               mapping[constraint.lhs], mapping[constraint.rhs],
               label=constraint.label)
