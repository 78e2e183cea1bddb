"""The reference backend: dict-of-sets fact storage.

This is the pre-storage-layer ``Instance`` layout, kept verbatim as
the semantics oracle for the columnar backend:

* relation name -> set of facts,
* ``(relation, position-index, term)`` -> set of facts,
* term -> set of ``(relation, position-index)`` keys with a non-empty
  bucket (so EGD substitutions and position lookups touch only the
  affected buckets, and empty buckets are always pruned).

On top of the historical indexes it implements the storage-layer
contract: permanent fact ids (insertion-ordered) and the interned-id
``scan`` used by compiled join plans, with a per-fact id-tuple cache
so repeated scans do not re-intern arguments.
"""

from __future__ import annotations

from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.lang.atoms import Atom
from repro.lang.terms import GroundTerm
from repro.obs.metrics import OBS
from repro.storage.base import FactId, FactStore
from repro.storage.interning import TermId, TermTable


class SetStore(FactStore):
    """Hash-set storage with per-position inverted indexes."""

    name = "set"

    def __init__(self, terms: Optional[TermTable] = None) -> None:
        super().__init__(terms)
        self._facts: Set[Atom] = set()
        self._by_relation: Dict[str, Set[Atom]] = {}
        self._by_term: Dict[Tuple[str, int, GroundTerm], Set[Atom]] = {}
        self._term_positions: Dict[GroundTerm, Set[Tuple[str, int]]] = {}
        # Permanent fact-id registry (kept across removals).
        self._fids: Dict[Atom, FactId] = {}
        self._atoms: List[Atom] = []
        # fact -> tuple of interned argument ids, filled lazily by scan.
        self._id_tuples: Dict[Atom, Tuple[TermId, ...]] = {}

    # ------------------------------------------------------------------
    # Physical mutation
    # ------------------------------------------------------------------
    def _insert(self, fact: Atom) -> bool:
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_relation.setdefault(fact.relation, set()).add(fact)
        for i, term in enumerate(fact.args):
            self._terms.intern(term)
            self._by_term.setdefault((fact.relation, i, term),
                                     set()).add(fact)
            self._term_positions.setdefault(term, set()).add(
                (fact.relation, i))
        if fact not in self._fids:
            self._fids[fact] = len(self._atoms)
            self._atoms.append(fact)
        return True

    def _remove(self, fact: Atom) -> bool:
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        relation_bucket = self._by_relation.get(fact.relation)
        if relation_bucket is not None:
            relation_bucket.discard(fact)
            if not relation_bucket:
                del self._by_relation[fact.relation]
        for i, term in enumerate(fact.args):
            key = (fact.relation, i, term)
            bucket = self._by_term.get(key)
            if bucket is None:
                continue
            bucket.discard(fact)
            if not bucket:
                # Empty term-index buckets are pruned eagerly -- the
                # set-store analogue of the columnar compaction.
                if OBS.enabled:
                    OBS.inc("storage.index_buckets_pruned")
                del self._by_term[key]
                positions = self._term_positions.get(term)
                if positions is not None:
                    positions.discard((fact.relation, i))
                    if not positions:
                        del self._term_positions[term]
        return True

    def facts_with_term(self, term: GroundTerm) -> List[Atom]:
        affected: Set[Atom] = set()
        for relation, i in self._term_positions.get(term, ()):
            affected.update(self._by_term.get((relation, i, term), ()))
        return list(affected)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def facts(self, relation: Optional[str] = None) -> Set[Atom]:
        if relation is None:
            return set(self._facts)
        return set(self._by_relation.get(relation, ()))

    def matching(self, relation: str, bindings: Mapping[int, GroundTerm]
                 ) -> Set[Atom]:
        base = self._by_relation.get(relation)
        if not base:
            return set()
        if not bindings:
            return set(base)
        candidate_sets = []
        for i, term in bindings.items():
            facts = self._by_term.get((relation, i, term))
            if not facts:
                return set()
            candidate_sets.append(facts)
        candidate_sets.sort(key=len)
        result = set(candidate_sets[0])
        for facts in candidate_sets[1:]:
            result &= facts
            if not result:
                break
        return result

    def term_positions(self, term: GroundTerm) -> Set[Tuple[str, int]]:
        return set(self._term_positions.get(term, ()))

    def domain(self) -> Set[GroundTerm]:
        return set(self._term_positions)

    def relations(self) -> Set[str]:
        return {name for name, facts in self._by_relation.items() if facts}

    # ------------------------------------------------------------------
    # Fact ids
    # ------------------------------------------------------------------
    def fact_id(self, fact: Atom) -> Optional[FactId]:
        return self._fids.get(fact)

    def fact_of(self, fid: FactId) -> Atom:
        return self._atoms[fid]

    def alive(self, fid: FactId) -> bool:
        return self._atoms[fid] in self._facts

    # ------------------------------------------------------------------
    # Plan scan + statistics
    # ------------------------------------------------------------------
    def _ids_of(self, fact: Atom) -> Tuple[TermId, ...]:
        ids = self._id_tuples.get(fact)
        if ids is None:
            intern = self._terms.intern
            ids = tuple(intern(term) for term in fact.args)
            self._id_tuples[fact] = ids
        return ids

    def scan(self, relation: str, arity: int,
             bound: Sequence[Tuple[int, TermId]]
             ) -> Iterator[Tuple[TermId, ...]]:
        term_of = self._terms.term
        bindings = {pos: term_of(tid) for pos, tid in bound}
        for fact in self.matching(relation, bindings):
            if fact.arity == arity:
                yield self._ids_of(fact)

    def has_row(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> bool:
        term_of = self._terms.term
        return Atom(relation, tuple(term_of(tid) for tid in ids)) \
            in self._facts

    def row_fid(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> Optional[FactId]:
        term_of = self._terms.term
        fact = Atom(relation, tuple(term_of(tid) for tid in ids))
        if fact not in self._facts:
            return None
        return self._fids.get(fact)

    def relation_size(self, relation: str) -> int:
        return len(self._by_relation.get(relation, ()))

    def posting_size(self, relation: str, position: int, tid: TermId
                     ) -> int:
        term = self._terms.term(tid)
        return len(self._by_term.get((relation, position, term), ()))
