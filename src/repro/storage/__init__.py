"""Fact storage: term interning and the columnar fact store.

The storage layer sits below :mod:`repro.lang.instance` -- an
``Instance`` is a thin facade over one :class:`FactStore`, which keeps
per-relation columns of interned term ids with array-backed posting
lists, the access paths of the compiled join plans.
"""

from repro.storage.interning import TermId, TermTable
from repro.storage.store import FactId, FactStore

__all__ = ["FactId", "FactStore", "TermId", "TermTable"]
