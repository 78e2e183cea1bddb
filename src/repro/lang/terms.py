"""Terms of the relational language: constants, labeled nulls, variables.

The paper fixes three pairwise disjoint infinite sets: the constants
``Delta``, the labeled nulls ``Delta_null`` and the variables ``V``
(Section 2, *Databases*).  We model each as a small immutable class so
that terms can be used as dictionary keys and set members, and so that
homomorphisms (which must fix constants but may move nulls) can
dispatch on the term kind cheaply.
"""

from __future__ import annotations

import threading
from math import copysign
from typing import Union


class Term:
    """Abstract base class for all terms."""

    __slots__ = ()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)


class Constant(Term):
    """An element of the constant domain ``Delta``.

    Homomorphisms are required to map every constant to itself.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("Constant", value)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Constant is immutable")

    def __eq__(self, other) -> bool:
        # Python equates True, 1 and 1.0, and 0.0 with -0.0; as wire
        # constants they differ, so equal constants also share the value
        # type and, for floats, the sign.  The hash stays the value's:
        # unequal constants may share it.
        if not isinstance(other, Constant):
            return False
        mine, theirs = self.value, other.value
        return (type(mine) is type(theirs) and mine == theirs
                and (type(mine) is not float
                     or copysign(1.0, mine) == copysign(1.0, theirs)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return str(self.value)


class Null(Term):
    """A labeled null from ``Delta_null``.

    Nulls are created by chase steps for existentially quantified
    variables.  Each null carries a unique integer label; two nulls are
    equal iff their labels are equal.  Nulls may be renamed by
    homomorphisms (unlike constants).
    """

    __slots__ = ("label", "_hash")

    def __init__(self, label: int) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash(("Null", label)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Null is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Null) and self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Null({self.label})"

    def __str__(self) -> str:
        return f"?n{self.label}"


class Variable(Term):
    """A first-order variable.

    Variables appear only in constraints and queries, never in database
    instances.  Universally vs. existentially quantified is a property
    of the enclosing constraint, not of the variable itself.
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Variable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


GroundTerm = Union[Constant, Null]


class NullFactory:
    """Thread-safe generator of fresh labeled nulls.

    A single module-level factory (:data:`NULLS`) backs the chase
    engine; tests may instantiate private factories or call
    :meth:`reset` for reproducible labels.
    """

    def __init__(self, start: int = 1) -> None:
        self._lock = threading.Lock()
        self._next = start

    def fresh(self) -> Null:
        """Return a null with a label never handed out before."""
        with self._lock:
            label = self._next
            self._next += 1
        return Null(label)

    def reset(self, start: int = 1) -> None:
        """Restart labeling (intended for tests and examples)."""
        with self._lock:
            self._next = start

    def advance_past(self, label: int) -> None:
        """Guarantee every future label exceeds ``label``.

        The chase calls this with the highest null label of its input
        instance: a "fresh" null whose label collides with a null
        already present would silently alias two distinct values (and
        an EGD equating the old one would corrupt the new one).
        Monotone, so advancing a shared factory is always safe.
        """
        with self._lock:
            if self._next <= label:
                self._next = label + 1


#: Default factory used by the chase engine when none is supplied.
NULLS = NullFactory()


def fresh_null() -> Null:
    """Convenience wrapper around the default :class:`NullFactory`."""
    return NULLS.fresh()
