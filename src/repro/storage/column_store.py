"""The columnar backend: interned-id columns + posting lists.

Facts are stored per ``(relation, arity)`` bucket as parallel columns
of interned term ids (one ``array('q')`` per position), with:

* an ``alive`` byte per row (EGD substitutions tombstone rows instead
  of shifting them, so posting-list entries stay valid);
* array-backed posting lists ``(position, term-id) -> array('q')`` of
  row indexes, the access paths of compiled join plans -- candidate
  rows come from the *smallest* posting list and are verified by
  direct column probes (two int comparisons per bound position);
* a ``row_of`` map from id-tuples to live rows (duplicate detection
  without hashing Atom objects);
* a parallel ``fids`` column mapping rows to permanent fact ids, so
  decoding a row to its (cached) ``Atom`` is a list index.

When tombstones outnumber live rows the bucket is compacted in one
pass (columns, postings and ``row_of`` rebuilt); fact ids -- the
currency of the trigger index -- are unaffected by compaction.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import itemgetter
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.lang.atoms import Atom
from repro.lang.terms import GroundTerm
from repro.obs.metrics import OBS
from repro.storage.base import FactId, FactStore
from repro.storage.interning import TermId, TermTable

#: Compaction triggers once a bucket holds more than this many dead
#: rows *and* more dead than live rows.
_COMPACT_MIN_DEAD = 64


class _Bucket:
    """Columnar rows of one ``(relation, arity)`` pair."""

    __slots__ = ("relation", "arity", "columns", "alive", "fids",
                 "postings", "row_of", "live", "dead")

    def __init__(self, relation: str, arity: int) -> None:
        self.relation = relation
        self.arity = arity
        self.columns: List[array] = [array("q") for _ in range(arity)]
        self.alive = bytearray()
        self.fids = array("q")
        self.postings: Dict[Tuple[int, TermId], array] = {}
        self.row_of: Dict[Tuple[TermId, ...], int] = {}
        self.live = 0
        self.dead = 0

    def append(self, ids: Tuple[TermId, ...], fid: FactId) -> int:
        row = len(self.alive)
        for position, tid in enumerate(ids):
            self.columns[position].append(tid)
            posting = self.postings.get((position, tid))
            if posting is None:
                posting = self.postings[(position, tid)] = array("q")
            posting.append(row)
        self.alive.append(1)
        self.fids.append(fid)
        self.row_of[ids] = row
        self.live += 1
        return row

    def kill(self, ids: Tuple[TermId, ...], row: int) -> None:
        del self.row_of[ids]
        self.alive[row] = 0
        self.live -= 1
        self.dead += 1

    def compact(self) -> None:
        """Drop tombstoned rows and rebuild the access paths."""
        columns = [array("q") for _ in range(self.arity)]
        alive = bytearray()
        fids = array("q")
        postings: Dict[Tuple[int, TermId], array] = {}
        row_of: Dict[Tuple[TermId, ...], int] = {}
        for row, live in enumerate(self.alive):
            if not live:
                continue
            ids = tuple(column[row] for column in self.columns)
            new_row = len(alive)
            for position, tid in enumerate(ids):
                columns[position].append(tid)
                posting = postings.get((position, tid))
                if posting is None:
                    posting = postings[(position, tid)] = array("q")
                posting.append(new_row)
            alive.append(1)
            fids.append(self.fids[row])
            row_of[ids] = new_row
        self.columns = columns
        self.alive = alive
        self.fids = fids
        self.postings = postings
        self.row_of = row_of
        self.dead = 0


class ColumnStore(FactStore):
    """Column-organized storage over interned term ids."""

    name = "column"

    def __init__(self, terms: Optional[TermTable] = None) -> None:
        super().__init__(terms)
        #: relation name -> buckets (one per arity seen; usually one)
        self._buckets: Dict[str, List[_Bucket]] = {}
        # Permanent fact-id registry: (relation, id-tuple) -> fid.
        self._fid_of: Dict[Tuple[str, Tuple[TermId, ...]], FactId] = {}
        self._atoms: List[Atom] = []
        self._fid_alive = bytearray()
        self._live_count = 0
        #: term id -> {(relation, position): live occurrence count}
        self._term_pos: Dict[TermId, Dict[Tuple[str, int], int]] = {}
        #: memo of the most recent insertion: the listener protocol
        #: asks for fact_id(fact) right after every add.
        self._last_inserted: Optional[Tuple[Atom, FactId]] = None

    # ------------------------------------------------------------------
    # Bucket plumbing
    # ------------------------------------------------------------------
    def _bucket(self, relation: str, arity: int, create: bool = False
                ) -> Optional[_Bucket]:
        buckets = self._buckets.get(relation)
        if buckets is not None:
            for bucket in buckets:
                if bucket.arity == arity:
                    return bucket
        if not create:
            return None
        bucket = _Bucket(relation, arity)
        self._buckets.setdefault(relation, []).append(bucket)
        return bucket

    def _iter_live(self, bucket: _Bucket) -> Iterator[int]:
        for row, live in enumerate(bucket.alive):
            if live:
                yield row

    def _atom_at(self, bucket: _Bucket, row: int) -> Atom:
        return self._atoms[bucket.fids[row]]

    # ------------------------------------------------------------------
    # Physical mutation
    # ------------------------------------------------------------------
    def _insert(self, fact: Atom) -> bool:
        intern = self._terms.intern
        ids = tuple(intern(term) for term in fact.args)
        bucket = self._bucket(fact.relation, fact.arity, create=True)
        if ids in bucket.row_of:
            return False
        key = (fact.relation, ids)
        fid = self._fid_of.get(key)
        if fid is None:
            fid = len(self._atoms)
            self._fid_of[key] = fid
            self._atoms.append(fact)
            self._fid_alive.append(1)
        else:
            self._fid_alive[fid] = 1
        bucket.append(ids, fid)
        self._last_inserted = (fact, fid)
        self._live_count += 1
        for position, tid in enumerate(ids):
            occurrences = self._term_pos.setdefault(tid, {})
            spot = (fact.relation, position)
            occurrences[spot] = occurrences.get(spot, 0) + 1
        return True

    def _remove(self, fact: Atom) -> bool:
        id_of = self._terms.id_of
        ids = []
        for term in fact.args:
            tid = id_of(term)
            if tid is None:
                return False
            ids.append(tid)
        ids = tuple(ids)
        bucket = self._bucket(fact.relation, fact.arity)
        if bucket is None:
            return False
        row = bucket.row_of.get(ids)
        if row is None:
            return False
        bucket.kill(ids, row)
        self._fid_alive[self._fid_of[(fact.relation, ids)]] = 0
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
        return True

    def facts_with_term(self, term: GroundTerm) -> List[Atom]:
        tid = self._terms.id_of(term)
        if tid is None:
            return []
        out: List[Atom] = []
        seen: Set[FactId] = set()
        for relation, position in list(self._term_pos.get(tid, ())):
            for bucket in self._buckets.get(relation, ()):
                if position >= bucket.arity:
                    continue
                posting = bucket.postings.get((position, tid))
                if posting is None:
                    continue
                alive = bucket.alive
                for row in posting:
                    if alive[row]:
                        fid = bucket.fids[row]
                        if fid not in seen:
                            seen.add(fid)
                            out.append(self._atoms[fid])
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, fact: Atom) -> bool:
        id_of = self._terms.id_of
        ids = []
        for term in fact.args:
            tid = id_of(term)
            if tid is None:
                return False
            ids.append(tid)
        bucket = self._bucket(fact.relation, fact.arity)
        return bucket is not None and tuple(ids) in bucket.row_of

    def __iter__(self) -> Iterator[Atom]:
        # Insertion order (stable across compactions).
        atoms = self._atoms
        for fid, live in enumerate(self._fid_alive):
            if live:
                yield atoms[fid]

    def __len__(self) -> int:
        return self._live_count

    def facts(self, relation: Optional[str] = None) -> Set[Atom]:
        if relation is None:
            return set(self)
        out: Set[Atom] = set()
        for bucket in self._buckets.get(relation, ()):
            for row in self._iter_live(bucket):
                out.add(self._atom_at(bucket, row))
        return out

    def matching(self, relation: str, bindings: Mapping[int, GroundTerm]
                 ) -> Set[Atom]:
        out: Set[Atom] = set()
        id_of = self._terms.id_of
        bound: List[Tuple[int, TermId]] = []
        for position, term in bindings.items():
            tid = id_of(term)
            if tid is None:
                return out
            bound.append((position, tid))
        for bucket in self._buckets.get(relation, ()):
            if any(position >= bucket.arity for position, _ in bound):
                continue
            for row in self._candidate_rows(bucket, bound):
                out.add(self._atom_at(bucket, row))
        return out

    def _candidate_rows(self, bucket: _Bucket,
                        bound: Sequence[Tuple[int, TermId]]
                        ) -> Iterator[int]:
        """Live rows of ``bucket`` matching every bound position."""
        if not bound:
            yield from self._iter_live(bucket)
            return
        postings = []
        for position, tid in bound:
            posting = bucket.postings.get((position, tid))
            if posting is None:
                return
            postings.append(posting)
        smallest = min(postings, key=len)
        alive = bucket.alive
        columns = bucket.columns
        for row in smallest:
            if alive[row] and all(columns[position][row] == tid
                                  for position, tid in bound):
                yield row

    def term_positions(self, term: GroundTerm) -> Set[Tuple[str, int]]:
        tid = self._terms.id_of(term)
        if tid is None:
            return set()
        return set(self._term_pos.get(tid, ()))

    def domain(self) -> Set[GroundTerm]:
        term_of = self._terms.term
        return {term_of(tid) for tid in self._term_pos}

    def relations(self) -> Set[str]:
        return {relation for relation, buckets in self._buckets.items()
                if any(bucket.live for bucket in buckets)}

    # ------------------------------------------------------------------
    # Fact ids
    # ------------------------------------------------------------------
    def fact_id(self, fact: Atom) -> Optional[FactId]:
        last = self._last_inserted
        if last is not None and last[0] is fact:
            return last[1]
        id_of = self._terms.id_of
        ids = []
        for term in fact.args:
            tid = id_of(term)
            if tid is None:
                return None
            ids.append(tid)
        return self._fid_of.get((fact.relation, tuple(ids)))

    def fact_of(self, fid: FactId) -> Atom:
        return self._atoms[fid]

    def alive(self, fid: FactId) -> bool:
        return bool(self._fid_alive[fid])

    # ------------------------------------------------------------------
    # Plan scan + statistics
    # ------------------------------------------------------------------
    def scan(self, relation: str, arity: int,
             bound: Sequence[Tuple[int, TermId]]
             ) -> Iterator[Tuple[TermId, ...]]:
        bucket = self._bucket(relation, arity)
        if bucket is None:
            return
        # Snapshot the access path: a suspended enumeration (the lazy
        # trigger index) must keep decoding row indexes against the
        # arrays they were drawn from, even if the bucket is compacted
        # underneath it.  Facts removed after the snapshot may still be
        # yielded; callers holding enumerations across mutations
        # re-validate yields against the live store.
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
        bucket = self._bucket(relation, arity)
        return bucket is not None and ids in bucket.row_of

    def row_fid(self, relation: str, arity: int,
                ids: Tuple[TermId, ...]) -> Optional[FactId]:
        bucket = self._bucket(relation, arity)
        if bucket is None:
            return None
        row = bucket.row_of.get(ids)
        if row is None:
            return None
        return bucket.fids[row]

    def relation_size(self, relation: str) -> int:
        return sum(bucket.live
                   for bucket in self._buckets.get(relation, ()))

    def posting_size(self, relation: str, position: int, tid: TermId
                     ) -> int:
        return sum(len(bucket.postings.get((position, tid), ()))
                   for bucket in self._buckets.get(relation, ())
                   if position < bucket.arity)
