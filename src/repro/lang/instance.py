"""Database instances: finite sets of facts in interned-id columns.

An instance is a finite set of atoms over constants and labeled nulls
(Section 2).  An :class:`Instance` stores its facts itself and owns
everything the engine reads them through: the term-interning table,
the access paths, the change-listener delta feed and the per-fact
dense ids.

Facts are stored per ``(relation, arity)`` bucket as parallel columns
of interned term ids (one ``array('q')`` per position), with:

* an ``alive`` byte per row (EGD substitutions tombstone rows instead
  of shifting them, so posting-list entries stay valid);
* array-backed posting lists ``(position, term-id) -> array('q')`` of
  row indexes, the access paths of compiled join plans
  (:mod:`repro.homomorphism.plan`) -- candidate rows come from the
  *smallest* posting list and are verified by direct column probes
  (two int comparisons per bound position);
* a ``row_of`` map from id-tuples to live rows (duplicate detection
  without hashing Atom objects);
* a ``fid_of`` map from id-tuples to permanent fact ids, keyed on the
  same tuple objects as ``row_of``, and a parallel ``fids`` column
  mapping rows to them, so decoding a row to its (cached) ``Atom`` is
  a list index.

When tombstones outnumber live rows the bucket is compacted in one
pass (columns, postings and ``row_of`` rebuilt, row order kept); fact
ids -- the currency of the trigger index -- are unaffected by
compaction.

Scans and iteration follow row and fact-id order, which is insertion
order: a chase's trigger order, and with it the numbering of its
labelled nulls, never depends on the interpreter's string-hash seed.

Instances support *change listeners*: objects registered via
:meth:`Instance.add_listener` are told about every fact insertion and
removal.  This is the delta feed that drives the semi-naive trigger
index of :mod:`repro.chase.triggers`.  Listeners fire *after* the
indexes are updated, in registration order, and are handed the fact
together with its id.  An EGD substitution emits each fact's removal
before the corresponding (possibly merged-away) addition, in fact-id
order.
"""

from __future__ import annotations

from array import array
from itertools import compress, count
from operator import itemgetter
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.lang.atoms import Atom, Position
from repro.lang.errors import SchemaError
from repro.lang.schema import Schema
from repro.lang.terms import Constant, GroundTerm, Null, Term
from repro.obs.metrics import OBS
from repro.storage.interning import TermId, TermTable

#: Dense per-instance fact id.  Like term ids, fact ids are permanent:
#: a fact keeps its id across removal and re-insertion, so id-keyed
#: caches (the trigger index backlog, the fact -> trigger reverse map)
#: survive EGD substitutions.
FactId = int

#: Compaction triggers once a bucket holds more than this many dead
#: rows *and* more dead than live rows.
_COMPACT_MIN_DEAD = 64


class InstanceListener:
    """Callback interface for instance deltas.

    Subclass (or duck-type) and register with
    :meth:`Instance.add_listener`.  Listeners are invoked *after* the
    indexes have been updated, in registration order, with the fact's
    permanent id (:meth:`Instance.fact_id`).
    """

    def fact_added(self, fact: Atom, fid: FactId) -> None:
        """``fact`` was inserted (it was not present before)."""

    def fact_removed(self, fact: Atom, fid: FactId) -> None:
        """``fact`` was removed (it was present before)."""


class _Bucket:
    """Columnar rows of one ``(relation, arity)`` pair."""

    __slots__ = ("arity", "columns", "alive", "fids", "postings", "row_of",
                 "fid_of", "live", "dead")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.columns: List[array] = [array("q") for _ in range(arity)]
        self.alive = bytearray()
        self.fids = array("q")
        self.postings: Dict[Tuple[int, TermId], array] = {}
        self.row_of: Dict[Tuple[TermId, ...], int] = {}
        #: permanent: entries outlive the row they were made for
        self.fid_of: Dict[Tuple[TermId, ...], FactId] = {}
        self.live = 0
        self.dead = 0

    def append(self, ids: Tuple[TermId, ...], fid: FactId) -> None:
        row = len(self.alive)
        postings = self.postings
        for position, tid in enumerate(ids):
            self.columns[position].append(tid)
            posting = postings.get((position, tid))
            if posting is None:
                posting = postings[(position, tid)] = array("q")
            posting.append(row)
        self.alive.append(1)
        self.fids.append(fid)
        self.row_of[ids] = row
        self.live += 1

    def kill(self, ids: Tuple[TermId, ...], row: int) -> None:
        del self.row_of[ids]
        self.alive[row] = 0
        self.live -= 1
        self.dead += 1

    def rows(self, bound: Sequence[Tuple[int, TermId]]) -> Iterator[int]:
        """Live rows matching every bound ``(position, term id)``."""
        alive = self.alive
        if not bound:
            return compress(range(len(alive)), alive)
        postings = []
        for position, tid in bound:
            posting = self.postings.get((position, tid))
            if posting is None:
                return iter(())
            postings.append(posting)
        columns = self.columns
        return (row for row in min(postings, key=len)
                if alive[row] and all(columns[position][row] == tid
                                      for position, tid in bound))

    def compact(self) -> None:
        """Drop tombstoned rows and rebuild the access paths.

        ``row_of`` lists the live rows in row order (a row's key is
        inserted when the row is appended), so the rebuilt bucket keeps
        the relative order of its rows and reuses their id tuples."""
        live_rows = self.row_of
        self.columns = [array("q") for _ in range(self.arity)]
        self.alive = bytearray()
        fids, self.fids = self.fids, array("q")
        self.postings = {}
        self.row_of = {}
        self.live = self.dead = 0
        for ids, row in live_rows.items():
            self.append(ids, fids[row])


class Instance:
    """A mutable set of ground atoms (facts) over interned-id columns."""

    __slots__ = ("_terms", "_listeners", "_generation", "_buckets",
                 "_by_relation", "_atoms", "_fid_alive", "_live_count",
                 "_term_pos")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._terms = TermTable()
        self._listeners: List[InstanceListener] = []
        self._generation = 0
        self._buckets: Dict[Tuple[str, int], _Bucket] = {}
        #: relation name -> its buckets (one per arity seen; usually one)
        self._by_relation: Dict[str, List[_Bucket]] = {}
        #: fact id -> fact, for live and removed facts
        self._atoms: List[Atom] = []
        self._fid_alive = bytearray()
        self._live_count = 0
        #: term id -> {(relation, position): live occurrence count}
        self._term_pos: Dict[TermId, Dict[Tuple[str, int], int]] = {}
        add = self.add
        for fact in facts:
            add(fact)

    # ------------------------------------------------------------------
    # Interning and statistics consumers
    # ------------------------------------------------------------------
    @property
    def terms(self) -> TermTable:
        """The instance's term-interning table."""
        return self._terms

    @property
    def generation(self) -> int:
        """A counter bumped on every successful mutation.

        Consumers that cache anything derived from the instance's
        *statistics* -- join orders chosen from ``relation_size``
        snapshots (:meth:`repro.homomorphism.plan.JoinPlan.order_for`)
        -- compare generations to detect that their snapshot may be
        stale, then re-check the cheap statistics before trusting the
        cached decision.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Change listeners (the delta feed of the incremental chase)
    # ------------------------------------------------------------------
    def add_listener(self, listener: InstanceListener) -> None:
        """Register ``listener`` for fact-added / fact-removed events."""
        self._listeners.append(listener)

    def remove_listener(self, listener: InstanceListener) -> None:
        """Unregister ``listener`` (no-op if it is not registered)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Mutation (listeners fire after the indexes are updated)
    # ------------------------------------------------------------------
    def _ids_of(self, fact: Atom) -> Optional[Tuple[TermId, ...]]:
        """The interned argument ids of ``fact``, or None when one of
        its terms was never stored."""
        id_of = self._terms.id_of
        ids = tuple([id_of(term) for term in fact.args])
        return None if None in ids else ids

    def add(self, fact: Atom) -> bool:
        """Insert a fact.  Returns True if it was new."""
        if not fact.is_ground:
            raise SchemaError(f"cannot store non-ground atom {fact}")
        intern = self._terms.intern
        ids = tuple([intern(term) for term in fact.args])
        relation = fact.relation
        key = (relation, len(ids))
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket(len(ids))
            self._by_relation.setdefault(relation, []).append(bucket)
        elif ids in bucket.row_of:
            return False
        fid = bucket.fid_of.get(ids)
        if fid is None:
            fid = bucket.fid_of[ids] = len(self._atoms)
            self._atoms.append(fact)
            self._fid_alive.append(1)
        else:
            self._fid_alive[fid] = 1
        bucket.append(ids, fid)
        self._live_count += 1
        term_pos = self._term_pos
        for position, tid in enumerate(ids):
            occurrences = term_pos.get(tid)
            if occurrences is None:
                occurrences = term_pos[tid] = {}
            spot = (relation, position)
            occurrences[spot] = occurrences.get(spot, 0) + 1
        self._generation += 1
        for listener in self._listeners:
            listener.fact_added(fact, fid)
        return True

    def add_all(self, facts: Iterable[Atom]) -> List[Atom]:
        """Insert many facts; return the ones that were actually new."""
        return [fact for fact in facts if self.add(fact)]

    def discard(self, fact: Atom) -> bool:
        """Remove a fact if present.  Returns True if it was removed.

        Terms that no longer occur in the instance leave the
        term-position index.
        """
        bucket = self._buckets.get((fact.relation, fact.arity))
        if bucket is None:
            return False
        ids = self._ids_of(fact)
        row = None if ids is None else bucket.row_of.get(ids)
        if row is None:
            return False
        fid = bucket.fids[row]
        bucket.kill(ids, row)
        self._fid_alive[fid] = 0
        self._live_count -= 1
        for position, tid in enumerate(ids):
            occurrences = self._term_pos[tid]
            spot = (fact.relation, position)
            remaining = occurrences[spot] - 1
            if remaining:
                occurrences[spot] = remaining
            else:
                del occurrences[spot]
                if not occurrences:
                    del self._term_pos[tid]
        if bucket.dead > _COMPACT_MIN_DEAD and bucket.dead > bucket.live:
            if OBS.enabled:
                OBS.inc("storage.compactions")
            bucket.compact()
        self._generation += 1
        for listener in self._listeners:
            listener.fact_removed(fact, fid)
        return True

    def substitute_term(self, old: GroundTerm, new: GroundTerm) -> List[Atom]:
        """Replace every occurrence of ``old`` by ``new`` (EGD steps).

        Returns the facts that changed (their new versions).  Affected
        facts come from the term-position index, so the cost is
        proportional to their number, not the instance size; they are
        rewritten in fact-id order, each removed before its new
        version is added.
        """
        if old == new:
            return []
        mapping = {old: new}
        changed: List[Atom] = []
        for fact in self.facts_with_term(old):
            self.discard(fact)
            new_fact = fact.substitute(mapping)
            if self.add(new_fact):
                changed.append(new_fact)
        return changed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def facts_with_term(self, term: GroundTerm) -> List[Atom]:
        """All live facts in which ``term`` occurs, in fact-id order."""
        tid = self._terms.id_of(term)
        if tid is None:
            return []
        found: Set[FactId] = set()
        for relation, position in self._term_pos.get(tid, ()):
            for bucket in self._by_relation[relation]:
                posting = bucket.postings.get((position, tid), ())
                alive, fids = bucket.alive, bucket.fids
                found.update(fids[row] for row in posting if alive[row])
        atoms = self._atoms
        return [atoms[fid] for fid in sorted(found)]

    def __contains__(self, fact: Atom) -> bool:
        bucket = self._buckets.get((fact.relation, fact.arity))
        if bucket is None:
            return False
        ids = self._ids_of(fact)
        return ids is not None and ids in bucket.row_of

    def __iter__(self) -> Iterator[Atom]:
        # Fact-id (insertion) order, stable across compactions.
        return compress(self._atoms, self._fid_alive)

    def __len__(self) -> int:
        return self._live_count

    def __eq__(self, other) -> bool:
        # Set equality of the fact sets.
        return (isinstance(other, Instance)
                and self._live_count == other._live_count
                and all(fact in other for fact in self))

    def facts(self, relation: Optional[str] = None) -> Set[Atom]:
        """All facts, or the facts of one relation (a fresh set)."""
        if relation is None:
            return set(self)
        atoms = self._atoms
        out: Set[Atom] = set()
        for bucket in self._by_relation.get(relation, ()):
            out.update(atoms[fid]
                       for fid in compress(bucket.fids, bucket.alive))
        return out

    def matching(self, relation: str, bindings: Mapping[int, GroundTerm]
                 ) -> Set[Atom]:
        """Facts of ``relation`` agreeing with ``bindings``
        (0-based position index -> required term)."""
        out: Set[Atom] = set()
        id_of = self._terms.id_of
        bound: List[Tuple[int, TermId]] = []
        for position, term in bindings.items():
            tid = id_of(term)
            if tid is None:
                return out
            bound.append((position, tid))
        atoms = self._atoms
        for bucket in self._by_relation.get(relation, ()):
            if all(position < bucket.arity for position, _ in bound):
                fids = bucket.fids
                out.update(atoms[fids[row]] for row in bucket.rows(bound))
        return out

    def domain(self) -> Set[GroundTerm]:
        """``dom(I)``: all constants and nulls appearing in the instance."""
        term_of = self._terms.term
        return {term_of(tid) for tid in self._term_pos}

    def constants(self) -> Set[Constant]:
        return {t for t in self.domain() if isinstance(t, Constant)}

    def nulls(self) -> Set[Null]:
        return {t for t in self.domain() if isinstance(t, Null)}

    def positions_of(self, term: Term) -> Set[Position]:
        """``null-pos({term}, I)``: positions at which ``term`` occurs."""
        tid = self._terms.id_of(term)
        if tid is None:
            return set()
        return {Position(relation, index + 1)
                for relation, index in self._term_pos.get(tid, ())}

    def relations(self) -> Set[str]:
        """Relation names with at least one live fact."""
        return {relation for relation, buckets in self._by_relation.items()
                if any(bucket.live for bucket in buckets)}

    def schema(self) -> Schema:
        return Schema.infer(self)

    # ------------------------------------------------------------------
    # Fact ids (permanent; survive removal)
    # ------------------------------------------------------------------
    def fact_id(self, fact: Atom) -> Optional[FactId]:
        """The permanent id of ``fact`` (assigned at first insertion),
        or None if the fact was never stored."""
        bucket = self._buckets.get((fact.relation, fact.arity))
        if bucket is None:
            return None
        ids = self._ids_of(fact)
        return None if ids is None else bucket.fid_of.get(ids)

    def live_fids(self) -> Iterator[FactId]:
        """The ids of the live facts, in insertion order."""
        return compress(count(), self._fid_alive)

    def fact_of(self, fid: FactId) -> Atom:
        """Decode a fact id (valid for live and removed facts)."""
        return self._atoms[fid]

    def alive(self, fid: FactId) -> bool:
        """Is the fact with this id currently stored?"""
        return bool(self._fid_alive[fid])

    # ------------------------------------------------------------------
    # Compiled-plan access paths (interned-id level)
    # ------------------------------------------------------------------
    def scan(self, relation: str, arity: int,
             bound: Sequence[Tuple[int, TermId]]
             ) -> Iterator[Tuple[TermId, ...]]:
        """Yield the interned-id tuples of live ``relation``/``arity``
        facts whose position ``p`` holds term id ``t`` for every
        ``(p, t)`` in ``bound``, in row order.  The workhorse of
        :class:`repro.homomorphism.plan.JoinPlan` execution."""
        bucket = self._buckets.get((relation, arity))
        if bucket is None:
            return
        # Snapshot the access path: a suspended enumeration (the lazy
        # trigger index) must keep decoding row indexes against the
        # arrays they were drawn from, even if the bucket is compacted
        # underneath it.  Facts removed after the snapshot may still be
        # yielded; callers holding enumerations across mutations
        # re-validate yields against the live instance.
        columns = bucket.columns
        alive = bucket.alive
        if not bound:
            if not columns:
                # Nullary relation: zip() over no columns would yield
                # nothing despite live rows.
                for live in alive:
                    if live:
                        yield ()
                return
            # Fully lazy and fully C: tuples come out of zip, dead rows
            # are dropped by compress.  (Appends extend all columns and
            # the liveness array between suspensions, so the paired
            # iterators stay row-aligned.)
            yield from compress(zip(*columns), alive)
            return
        postings = []
        for position, tid in bound:
            posting = bucket.postings.get((position, tid))
            if posting is None:
                return
            postings.append(posting)
        smallest = min(postings, key=len)
        # A posting row trivially satisfies its own (position, id) pair,
        # so only the *other* bound positions need column probes.
        own = smallest
        probes = [(columns[position], tid) for position, tid in bound
                  if bucket.postings.get((position, tid)) is not own]
        if len(smallest) <= 8:
            # Short posting: the plain loop beats the chunk machinery.
            for row in smallest:
                if alive[row] and all(column[row] == tid
                                      for column, tid in probes):
                    yield tuple([column[row] for column in columns])
            return
        # Adaptive chunking: the first chunks are tiny so existence
        # probes stop after O(1) work, then the chunk size grows
        # geometrically and the projection runs through itemgetter/zip
        # at C speed for enumeration-heavy consumers.
        position_index = 0
        chunk = 1
        while position_index < len(smallest):
            end = min(position_index + chunk, len(smallest))
            rows = smallest[position_index:end]
            position_index = end
            if chunk < 256:
                chunk *= 4
            if probes:
                live = [row for row in rows
                        if alive[row] and all(column[row] == tid
                                              for column, tid in probes)]
            else:
                live = [row for row in rows if alive[row]]
            if not live:
                continue
            if len(live) == 1:
                row = live[0]
                yield tuple([column[row] for column in columns])
            else:
                picker = itemgetter(*live)
                yield from zip(*[picker(column) for column in columns])

    def has_row(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> bool:
        """Containment probe at the id level: is the fact with exactly
        these interned argument ids currently stored?  The fast path of
        fully-bound join-plan executions (head-extension checks)."""
        bucket = self._buckets.get((relation, arity))
        return bucket is not None and ids in bucket.row_of

    def row_fid(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> Optional[FactId]:
        """The fact id of the *live* fact with these interned argument
        ids, or None.  Used by the trigger index to validate body
        images without materializing atoms."""
        bucket = self._buckets.get((relation, arity))
        if bucket is None:
            return None
        row = bucket.row_of.get(ids)
        return None if row is None else bucket.fids[row]

    # ------------------------------------------------------------------
    # Selectivity statistics (join-plan ordering)
    # ------------------------------------------------------------------
    def relation_size(self, relation: str) -> int:
        """Number of live facts of ``relation`` (0 when absent)."""
        buckets = self._by_relation.get(relation)
        if not buckets:
            return 0
        if len(buckets) == 1:
            return buckets[0].live
        return sum(bucket.live for bucket in buckets)

    def posting_size(self, relation: str, position: int, tid: TermId
                     ) -> int:
        """Upper bound on the number of facts of ``relation`` holding
        term ``tid`` at 0-based ``position`` (posting-list length)."""
        size = 0
        for bucket in self._by_relation.get(relation, ()):
            posting = bucket.postings.get((position, tid))
            if posting is not None:
                size += len(posting)
        return size

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Instance":
        """A fresh instance with the same facts, in the same order
        (listeners are not copied)."""
        return Instance(self)

    def union(self, other: "Instance") -> "Instance":
        out = self.copy()
        out.add_all(other.facts())
        return out

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def __repr__(self) -> str:
        facts = sorted(str(f) for f in self)
        preview = ", ".join(facts[:8])
        more = "" if len(facts) <= 8 else f", ... ({len(facts)} facts)"
        return f"Instance({{{preview}{more}}})"

    def render(self) -> str:
        """A deterministic multi-line rendering (sorted facts)."""
        return "\n".join(sorted(str(f) for f in self))
