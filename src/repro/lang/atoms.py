"""Relational atoms and database positions.

A *position* is a pair ``(R, i)`` for a relation symbol ``R`` and a
1-based index ``i <= ar(R)`` (Section 2 of the paper, where position
``(E, 1)`` is written ``E^1``).  Positions are the vertices of the
dependency graph (Definition 1) and the propagation graph
(Definition 7), and the currency of affected-position computations.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.lang.errors import SchemaError
from repro.lang.terms import Constant, Null, Term, Variable


class Position:
    """A database position ``R^i`` (1-based, as in the paper)."""

    __slots__ = ("relation", "index", "_hash")

    def __init__(self, relation: str, index: int) -> None:
        if index < 1:
            raise SchemaError(f"positions are 1-based, got {relation}^{index}")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((relation, index)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Position is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Position)
                and self.relation == other.relation
                and self.index == other.index)

    def __lt__(self, other: "Position") -> bool:
        return (self.relation, self.index) < (other.relation, other.index)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Position({self.relation!r}, {self.index})"

    def __str__(self) -> str:
        return f"{self.relation}^{self.index}"


class Atom:
    """A relational atom ``R(t_1, ..., t_n)``.

    Atoms are immutable; the argument tuple may mix variables,
    constants and labeled nulls.  An atom whose arguments are all
    constants or nulls is a *fact* and may be stored in an instance.
    """

    __slots__ = ("relation", "args", "_hash")

    def __init__(self, relation: str, args: Iterable[Term]) -> None:
        args = tuple(args)
        for arg in args:
            if not isinstance(arg, Term):
                raise SchemaError(
                    f"atom argument {arg!r} is not a Term; "
                    "wrap raw values in Constant/Variable/Null")
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((relation, args)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Atom is immutable")

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        """True when the atom contains no variables (it is a fact)."""
        return not any(isinstance(a, Variable) for a in self.args)

    def variables(self) -> set[Variable]:
        return {a for a in self.args if isinstance(a, Variable)}

    def constants(self) -> set[Constant]:
        return {a for a in self.args if isinstance(a, Constant)}

    def nulls(self) -> set[Null]:
        return {a for a in self.args if isinstance(a, Null)}

    def positions(self) -> list[Position]:
        """All positions of this atom, in order."""
        return [Position(self.relation, i + 1) for i in range(self.arity)]

    def positions_of(self, term: Term) -> set[Position]:
        """The positions at which ``term`` occurs in this atom."""
        return {Position(self.relation, i + 1)
                for i, a in enumerate(self.args) if a == term}

    def substitute(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Apply ``mapping`` to every argument (identity on misses)."""
        return Atom(self.relation, tuple(mapping.get(a, a) for a in self.args))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Atom)
                and self.relation == other.relation
                and self.args == other.args)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.relation!r}, {self.args!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.relation}({inner})"


def atoms_variables(atoms: Iterable[Atom]) -> set[Variable]:
    """The set of variables occurring in a collection of atoms."""
    out: set[Variable] = set()
    for atom in atoms:
        out.update(atom.variables())
    return out


def atoms_constants(atoms: Iterable[Atom]) -> set[Constant]:
    """The set of constants occurring in a collection of atoms."""
    out: set[Constant] = set()
    for atom in atoms:
        out.update(atom.constants())
    return out


def atoms_positions(atoms: Iterable[Atom]) -> set[Position]:
    """The set of positions spanned by a collection of atoms."""
    out: set[Position] = set()
    for atom in atoms:
        out.update(atom.positions())
    return out


def occurrences(atoms: Iterable[Atom], term: Term) -> set[Position]:
    """Positions at which ``term`` occurs across ``atoms``."""
    out: set[Position] = set()
    for atom in atoms:
        out.update(atom.positions_of(term))
    return out
