"""Trigger sources: the semi-naive chase index and its naive reference.

Each chase run reads its active triggers from one source, which hands
each out as an ``(assignment, key)`` pair and takes the key back
through ``mark_fired`` once the step has fired.  The naive source,
:class:`NaiveTriggers`, re-enumerates every body homomorphism on each
selection -- quadratic in the chase length.  :class:`TriggerIndex`
replaces that with the semi-naive discipline of datalog evaluation,
kept *lazy* at homomorphism granularity:

* **Seed.** Every fact of the input instance is queued as a delta
  (the seed is just the first batch of deltas).
* **Delta.** The index registers as an
  :class:`repro.lang.instance.InstanceListener` on the working
  instance.  Every added fact is routed to a per-constraint *backlog*;
  every removed fact (EGD substitutions) retires the pending triggers
  whose body image used it.
* **Expand.** Backlog facts are expanded only when a selection needs
  more active triggers than are materialized: the delta-restricted
  search (:func:`repro.homomorphism.engine.find_homomorphisms_through`)
  enumerates exactly the homomorphisms using the fact, and the
  enumeration is *suspended* as soon as enough active triggers have
  been found.  On divergent runs an active trigger is almost always at
  hand, so almost nothing is expanded -- matching the naive path's
  first-violation short-circuit -- while terminating runs drain every
  backlog at the final satisfaction check (a selection answers "no
  trigger" only with an empty backlog), which keeps the index complete.
* **Select.** Strategies ask for the next *active* trigger
  (Section 2: the body maps but the head does not extend / the EGD
  equates distinct terms).  Satisfied homomorphisms are remembered but
  never enqueued, and pending triggers found satisfied later are
  dropped **permanently**: new facts can only help a TGD head extend,
  and an EGD substitution that could disturb a satisfied trigger
  necessarily rewrites its body image, which retires the trigger
  through the delta feed first.

Every internal key is an interned integer id from the working
instance: the delta queue and the per-constraint backlogs carry
permanent *fact ids* (:meth:`repro.lang.instance.Instance.fact_id` --
stable across EGD remove/re-add cycles, and handed to the index with
each delta), and the fact ->
pending-trigger reverse map is keyed on them.  Discovery stays at the
id level up to the enqueue decision.  Each constraint has a
:class:`_Layout`, derived once per index: the delta search projects
the body onto its variables in name order and yields rows of interned
*term ids*; the trigger key is the row zipped with the variable names
(no intern, no sort); an EGD trigger is active when two ints differ,
and a TGD trigger when its frontier id tuple is neither in the
satisfied cache nor extended by one ``limit=1`` run of the head plan
with that frontier pre-bound as ids; an active row's body image is
re-validated with one id-level ``row_fid`` probe per atom.  Terms are
decoded only for the triggers that are enqueued.  (The delta fact
itself is still unified with the body atoms as an ``Atom``.)

Trigger identity is the frozen body assignment (the paper's
``(alpha, mu(x))`` naming of chase steps, Section 2), as interned
(variable name, term id) pairs.  Keys once seen are never re-enqueued,
and a suspended enumeration stays sound across instance mutations, for
the same underlying reason: facts are only ever removed by EGD
substitutions eliminating a labeled null, null labels are globally
fresh (:class:`repro.lang.terms.NullFactory`), so a removed fact --
and hence a retired assignment -- can never come back.  Homomorphisms
that appear *after* a suspension use a newly added fact and are found
through that fact's own backlog entry; homomorphisms yielded from
stale enumeration state are filtered by re-validating their body image
against the live instance.

The oblivious mode (Section 3.3's chase variant) keeps every pending
body homomorphism eligible regardless of head satisfaction and relies
on :meth:`TriggerIndex.mark_fired` to consume each exactly once.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice
from operator import itemgetter
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple, Union)

from repro.homomorphism.engine import (Assignment, find_homomorphisms,
                                       find_homomorphisms_through)
from repro.homomorphism.extend import (active_assignments,
                                       freeze_assignment_ids)
from repro.homomorphism.plan import compile_plan
from repro.lang.constraints import Constraint, EGD, TGD
from repro.lang.instance import FactId, Instance
from repro.lang.terms import Variable
from repro.obs.metrics import OBS
from repro.storage.interning import TermTable

#: Hashable identity of a trigger within one constraint: the frozen
#: body assignment ``mu`` as sorted (variable-name, interned-term-id)
#: pairs.  Ids come from the working instance's term table, so the key
#: is two machine ints per variable instead of a boxed term hash.
TriggerKey = Tuple[Tuple[str, int], ...]

#: An active trigger as a source hands it out: the body assignment to
#: fire, and the key to hand back to ``mark_fired`` once it has fired
#: (None from the standard naive source, which keeps no trigger state).
Trigger = Tuple[Assignment, Optional[TriggerKey]]


def _picker(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A callable taking a row to the tuple of its entries at
    ``indices`` (``itemgetter`` returns a bare entry for one index)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda row: tuple([row[index] for index in indices])


class _Layout:
    """One constraint's id-level shape, derived once per index.

    Delta searches project the body onto :attr:`variables` (every body
    variable, in name order), so each result is a *row* of interned
    term ids aligned with them.  Everything the index does with a
    trigger before enqueueing it reads that row:

    * ``zip(names, row)`` is the trigger key;
    * :attr:`images` re-ground each body atom as an id tuple for one
      ``row_fid`` probe (body constants sit past the end of the row, in
      :attr:`constants`);
    * :attr:`sides` are the row positions of an EGD's two sides;
    * :attr:`frontier` are the row positions of a TGD's frontier
      variables (:attr:`frontier_vars`, name order): the key of the
      :attr:`satisfied` cache and the pre-bound ids of the :attr:`head`
      plan's existence check.
    """

    __slots__ = ("plan", "variables", "names", "constants", "images",
                 "sides", "frontier", "frontier_vars", "head",
                 "head_frontier", "satisfied", "prune")

    def __init__(self, constraint: Constraint, table: TermTable,
                 oblivious: bool) -> None:
        self.plan = compile_plan(constraint.body)
        self.variables = self.plan.variable_order
        self.names = tuple(var.name for var in self.variables)
        slot = {var: index for index, var in enumerate(self.variables)}
        constants: List[int] = []
        images = []
        for spec in self.plan.specs:
            indices = []
            for arg in spec.args:
                if isinstance(arg, Variable):
                    indices.append(slot[arg])
                else:
                    indices.append(len(self.variables) + len(constants))
                    constants.append(table.intern(arg))
            images.append((spec.relation, spec.arity, _picker(indices)))
        self.constants = tuple(constants)
        self.images = tuple(images)
        self.sides: Optional[Tuple[int, int]] = None
        self.frontier: Tuple[int, ...] = ()
        self.frontier_vars: Tuple[Variable, ...] = ()
        self.head = None
        self.head_frontier: Tuple[Variable, ...] = ()
        if isinstance(constraint, EGD):
            self.sides = (slot[constraint.lhs], slot[constraint.rhs])
        else:
            assert isinstance(constraint, TGD)
            self.frontier = tuple(sorted(
                slot[var] for var in constraint.frontier_variables()))
            self.frontier_vars = tuple(self.variables[index]
                                       for index in self.frontier)
            self.head = compile_plan(constraint.head)
            # The head plan's own objects for the frontier, so its
            # binding lookups match on identity.
            self.head_frontier = tuple(
                next(var for var in self.head.variables if var == frontier)
                for frontier in self.frontier_vars)
        #: interned frontier bindings whose TGD head is known to extend;
        #: sound to cache because satisfaction is permanent (module
        #: docstring)
        self.satisfied: Set[tuple] = set()
        self.prune = self._prune_for(oblivious)

    def _prune_for(self, oblivious: bool):
        """A search-pruning predicate for the delta enumeration.

        Prunes subtrees guaranteed to yield only settled homomorphisms:
        TGD bindings whose fully-bound frontier is cached as satisfied
        (every completion shares that frontier), and EGD bindings that
        already equate the two sides (every completion stays trivial).
        Sound in the standard chase only -- the oblivious chase must
        fire satisfied TGD triggers, so there no pruning happens.

        The plan executor calls them with the id-level binding: int
        equality for an EGD, a direct cache lookup for a TGD.
        """
        if self.sides is not None:
            lhs, rhs = (self.variables[side] for side in self.sides)

            def prune_egd(binding):
                left = binding.get(lhs)
                return left is not None and left == binding.get(rhs)
            # Declaring the variables the predicate reads lets the plan
            # executor abandon a whole scan on the first True when the
            # scanned atom binds none of them (the predicate's answer
            # cannot change row to row).
            prune_egd.depends_on = frozenset((lhs, rhs))
            return prune_egd
        if oblivious:
            return None
        frontier_vars = self.frontier_vars
        cache = self.satisfied

        def prune_tgd(binding):
            values = tuple(map(binding.get, frontier_vars))
            return None not in values and values in cache
        prune_tgd.depends_on = frozenset(frontier_vars)
        return prune_tgd


class TriggerIndex:
    """Maintains the pending-trigger set of a chase run incrementally.

    Attach to the *working* instance of a run; the index registers
    itself as a change listener and must be :meth:`detach`-ed when the
    run ends (the runners do this in a ``finally`` block).

    ``oblivious=True`` switches the activity condition to the
    oblivious chase's: any unfired body homomorphism is a trigger,
    except EGD triggers that equate a term with itself.
    """

    def __init__(self, sigma: Iterable[Constraint], instance: Instance,
                 oblivious: bool = False) -> None:
        self._sigma: List[Constraint] = list(sigma)
        self._instance = instance
        self._oblivious = oblivious
        self._layouts: Dict[Constraint, _Layout] = {
            constraint: _Layout(constraint, instance.terms, oblivious)
            for constraint in self._sigma}
        #: materialized triggers that were active when discovered
        self._pending: Dict[Constraint, "OrderedDict[TriggerKey, Assignment]"] = {
            constraint: OrderedDict() for constraint in self._sigma}
        #: every assignment ever discovered (pending, fired, settled)
        self._seen: Dict[Constraint, Set[TriggerKey]] = {
            constraint: set() for constraint in self._sigma}
        #: fact id -> pending triggers whose body image uses the fact
        self._by_fact: Dict[FactId, Set[Tuple[Constraint, TriggerKey]]] = {}
        #: inverted routing map: relation -> constraints mentioning it,
        #: so refresh() is O(interested constraints) per added fact
        self._constraints_by_relation: Dict[str, List[Constraint]] = {}
        for constraint in self._sigma:
            for relation in {atom.relation for atom in constraint.body}:
                self._constraints_by_relation.setdefault(
                    relation, []).append(constraint)
        #: added fact ids not yet expanded, per constraint
        self._backlog: Dict[Constraint, Deque[FactId]] = {
            constraint: deque() for constraint in self._sigma}
        #: suspended delta enumeration for the backlog fact being expanded
        self._expanding: Dict[Constraint, Optional[Iterator[tuple]]] = {
            constraint: None for constraint in self._sigma}
        #: buffered deltas: (op, fact id)
        self._events: Deque[Tuple[str, FactId]] = deque()
        self._attached = False
        instance.add_listener(self)
        self._attached = True
        # Lazy seed: the input facts are simply the first deltas.
        self._events.extend(("+", fid) for fid in instance.live_fids())
        # Empty-body TGDs (axioms) have the empty homomorphism as their
        # one body trigger; its image uses no fact, so delta discovery
        # would never surface it -- seed it explicitly.
        for constraint in self._sigma:
            if not constraint.body:
                self._seen[constraint].add(())
                if not self._is_settled(self._layouts[constraint], ()):
                    self._pending[constraint][()] = {}

    # ------------------------------------------------------------------
    # InstanceListener protocol: buffer deltas, processed on refresh()
    # ------------------------------------------------------------------
    def fact_added(self, fact, fid: FactId) -> None:
        """Record an insertion delta (processed lazily by refresh)."""
        self._events.append(("+", fid))

    def fact_removed(self, fact, fid: FactId) -> None:
        """Record a removal delta (processed lazily by refresh).

        Fact ids are permanent (they survive removal), so the id still
        resolves when the event is drained.
        """
        self._events.append(("-", fid))

    def detach(self) -> None:
        """Stop listening to the instance (idempotent)."""
        if self._attached:
            self._instance.remove_listener(self)
            self._attached = False

    # ------------------------------------------------------------------
    # Delta consumption
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Drain buffered deltas: retire dead triggers, route added
        facts to the per-constraint backlogs (expanded lazily).

        Called automatically by every selection method; cheap when no
        mutation happened since the last call.
        """
        if self._events and OBS.enabled:
            OBS.inc("triggers.deltas", len(self._events))
        while self._events:
            op, fid = self._events.popleft()
            if op == "-":
                self._retire_fact(fid)
                continue
            relation = self._instance.fact_of(fid).relation
            for constraint in self._constraints_by_relation.get(relation, ()):
                self._backlog[constraint].append(fid)

    def _retire_fact(self, fid: FactId) -> None:
        for constraint, key in self._by_fact.pop(fid, ()):
            self._pending[constraint].pop(key, None)

    # ------------------------------------------------------------------
    # Activity
    # ------------------------------------------------------------------
    def _is_settled(self, layout: _Layout, row: Sequence[int]) -> bool:
        """Is the trigger whose body variables hold the ids ``row``
        (aligned with ``layout.variables``) *inactive for good* (safe to
        drop)?

        Standard chase: a satisfied trigger stays satisfied while its
        body image survives (see module docstring), so ``True`` means
        the trigger can be removed permanently.  Oblivious chase: only
        trivial EGD triggers (``mu(x_i) = mu(x_j)``) are settled.
        """
        if layout.sides is not None:
            left, right = layout.sides
            return row[left] == row[right]
        if self._oblivious:
            return False
        # Satisfaction only depends on the frontier binding, and stays
        # true once established -- so one check covers every body
        # homomorphism sharing the frontier (a big saving for bodies
        # with non-frontier join variables).
        frontier = tuple([row[index] for index in layout.frontier])
        if frontier in layout.satisfied:
            if OBS.enabled:
                OBS.inc("triggers.frontier_prune_hits")
            return True
        if self._head_extends(layout, frontier):
            layout.satisfied.add(frontier)
            return True
        return False

    def _head_extends(self, layout: _Layout, frontier: tuple) -> bool:
        """Does the TGD head map with its frontier bound to the ids
        ``frontier``?  One ``limit=1`` run of the head plan."""
        binding = dict(zip(layout.head_frontier, frontier))
        for _ in layout.head.execute(self._instance, partial_ids=binding,
                                     limit=1, project=()):
            return True
        return False

    # ------------------------------------------------------------------
    # Expansion (lazy semi-naive delta search)
    # ------------------------------------------------------------------
    def _expand_backlog(self, constraint: Constraint, found: List[Trigger],
                        found_keys: Set[TriggerKey],
                        cap: Optional[int]) -> None:
        """Expand backlog facts until ``cap`` active triggers are in
        ``found`` or nothing is left to expand.

        The enumeration for the fact currently being expanded is kept
        suspended between calls.  It yields id rows; a row is decoded
        to terms only once it is known to be new, active and live --
        yields from a suspended enumeration are re-validated against
        the live instance (the module docstring explains why this is
        sound across mutations).
        """
        layout = self._layouts[constraint]
        instance = self._instance
        term_of = instance.terms.term
        seen = self._seen[constraint]
        pending = self._pending[constraint]
        backlog = self._backlog[constraint]
        variables, names = layout.variables, layout.names
        constants, images = layout.constants, layout.images
        while True:
            enumeration = self._expanding[constraint]
            if enumeration is None:
                fact = None
                while backlog:
                    candidate = backlog.popleft()
                    if instance.alive(candidate):
                        fact = instance.fact_of(candidate)
                        break
                if fact is None:
                    return
                if OBS.enabled:
                    OBS.inc("triggers.backlog_expanded")
                    OBS.observe("triggers.backlog_depth", len(backlog))
                enumeration = find_homomorphisms_through(
                    layout.plan, instance, fact, prune=layout.prune,
                    project=variables)
                self._expanding[constraint] = enumeration
            for row in enumeration:
                key = tuple(zip(names, row))
                if key in seen:
                    continue
                if self._is_settled(layout, row):
                    # Remembered, never enqueued.  A stale row may land
                    # here unvalidated: its image lost a fact for good,
                    # so remembering it changes nothing.
                    seen.add(key)
                    continue
                # The body image as id tuples, one row_fid probe each:
                # a suspended enumeration may yield a row whose image
                # lost a fact since.
                grounded = row + constants if constants else row
                image_fids = []
                for relation, arity, pick in images:
                    fid = instance.row_fid(relation, arity, pick(grounded))
                    if fid is None:
                        break
                    image_fids.append(fid)
                else:
                    seen.add(key)
                    assignment = dict(zip(variables, map(term_of, row)))
                    pending[key] = assignment
                    for fid in image_fids:
                        self._by_fact.setdefault(fid, set()).add(
                            (constraint, key))
                    found.append((dict(assignment), key))
                    found_keys.add(key)
                    if cap is not None and len(found) >= cap:
                        return  # enumeration stays suspended for next time
            self._expanding[constraint] = None  # fact fully expanded

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def _collect_active(self, constraint: Constraint, found: List[Trigger],
                        found_keys: Set[TriggerKey],
                        cap: Optional[int]) -> None:
        """One pass over the materialized queue: drop settled triggers,
        collect active ones not yet in ``found`` (up to ``cap``)."""
        layout = self._layouts[constraint]
        pending = self._pending[constraint]
        settled: List[TriggerKey] = []
        for key, assignment in pending.items():
            if key in found_keys:
                continue
            if self._is_settled(layout, [tid for _, tid in key]):
                settled.append(key)
                continue
            found.append((dict(assignment), key))
            found_keys.add(key)
            if cap is not None and len(found) >= cap:
                break
        if settled and OBS.enabled:
            OBS.inc("triggers.settled_dropped", len(settled))
        for key in settled:
            del pending[key]

    def active_triggers(self, constraint: Constraint,
                        cap: Optional[int] = None) -> List[Trigger]:
        """Up to ``cap`` pending active triggers of ``constraint``
        (all of them when ``cap`` is None), dropping satisfied ones.

        Expands backlog deltas only while fewer than ``cap`` active
        triggers are materialized, so divergent runs -- where an active
        trigger is always at hand -- do almost no delta searching.
        """
        self.refresh()
        found: List[Trigger] = []
        found_keys: Set[TriggerKey] = set()
        self._collect_active(constraint, found, found_keys, cap)
        if cap is None or len(found) < cap:
            self._expand_backlog(constraint, found, found_keys, cap)
        return found

    def next_active(self, constraint: Constraint) -> Optional[Trigger]:
        """The first pending active trigger of ``constraint``, or None
        (None is definitive: the backlog has been fully drained).

        Satisfied triggers encountered on the way are dropped
        permanently; the returned trigger stays pending until it is
        fired (:meth:`mark_fired`) or its body image is rewritten.
        """
        found = self.active_triggers(constraint, cap=1)
        return found[0] if found else None

    def mark_fired(self, constraint: Constraint, key: TriggerKey) -> None:
        """Consume the trigger handed out under ``key``, which was just
        executed (it stays *seen*, so it can never be re-discovered and
        re-fired)."""
        self._pending[constraint].pop(key, None)

    # ------------------------------------------------------------------
    # Introspection (tests, diagnostics)
    # ------------------------------------------------------------------
    def _materialize(self, constraint: Constraint) -> None:
        """Expand the full backlog of ``constraint`` (introspection)."""
        self.refresh()
        self._expand_backlog(constraint, [], set(), None)

    def pending_count(self, constraint: Optional[Constraint] = None) -> int:
        """Number of pending (discovered-active, not yet retired/fired)
        triggers, after materializing any outstanding backlog."""
        targets = [constraint] if constraint is not None else self._sigma
        for target in targets:
            self._materialize(target)
        return sum(len(self._pending[target]) for target in set(targets))

    def pending_assignments(self, constraint: Constraint
                            ) -> List[Assignment]:
        """A snapshot of the pending queue of ``constraint`` (in
        discovery order, without activity re-filtering), after
        materializing any outstanding backlog."""
        self._materialize(constraint)
        return [dict(assignment)
                for assignment in self._pending[constraint].values()]


class NaiveTriggers:
    """The reference trigger source of ``chase(..., naive=True)``:
    every selection searches the whole instance again.

    It has the surface of :class:`TriggerIndex` that strategies and
    the runner use, plus :meth:`iter_active`, the lazy walk the
    depth-bounded chase filters.  The standard mode hands out
    :func:`repro.homomorphism.extend.active_assignments` and keeps no
    state: a fired trigger is satisfied, so it never comes back.  The
    oblivious mode hands out every body homomorphism but trivial EGD
    triggers and the fired ones, whose keys it keeps.
    """

    def __init__(self, instance: Instance, oblivious: bool = False) -> None:
        self.instance = instance
        self._oblivious = oblivious
        self._fired: Set[Tuple[Constraint, TriggerKey]] = set()

    def iter_active(self, constraint: Constraint) -> Iterator[Trigger]:
        """The active triggers of ``constraint``, lazily, in search
        order."""
        if not self._oblivious:
            for assignment in active_assignments(constraint, self.instance):
                yield assignment, None
            return
        table = self.instance.terms
        for assignment in find_homomorphisms(list(constraint.body),
                                             self.instance):
            key = freeze_assignment_ids(assignment, table)
            if (constraint, key) in self._fired or (
                    constraint.is_egd and assignment[constraint.lhs]
                    == assignment[constraint.rhs]):  # type: ignore
                continue
            yield assignment, key

    def next_active(self, constraint: Constraint) -> Optional[Trigger]:
        """The first active trigger of ``constraint``, or None."""
        return next(self.iter_active(constraint), None)

    def active_triggers(self, constraint: Constraint,
                        cap: Optional[int] = None) -> List[Trigger]:
        """The first ``cap`` active triggers of ``constraint`` (all of
        them when ``cap`` is None)."""
        return list(islice(self.iter_active(constraint), cap))

    def mark_fired(self, constraint: Constraint,
                   key: Optional[TriggerKey]) -> None:
        """Record a fired trigger (the oblivious mode's fired set)."""
        if self._oblivious:
            self._fired.add((constraint, key))

    def detach(self) -> None:
        """Nothing to release: the naive source keeps no listener."""


#: What a chase run reads its triggers from: the index, or the naive
#: reference source.
TriggerSource = Union[TriggerIndex, NaiveTriggers]
