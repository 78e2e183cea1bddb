"""Compiled join plans: one access path per constraint body.

A naive backtracking search re-derives its join order on *every*
homomorphism search: each recursion step scanned all pending body
atoms for the most-constrained one and copied the binding dict per
candidate fact.  A :class:`JoinPlan` hoists all of that out of the hot
loop:

* the body is compiled **once** (argument specs split into ground and
  variable positions) and cached on the body tuple -- constraints are
  immutable, so every chase step, head-extension check and delta
  search of a constraint reuses the same plan;
* the atom order is chosen once per ``(pre-bound variables, pinned
  atom)`` signature: a greedy most-constrained-first walk -- which
  positions are bound after each atom is a *static* property of the
  signature -- with ties broken by the selectivity statistics the
  instance exposes (:meth:`repro.lang.instance.Instance
  .relation_size`);
* execution runs over interned term ids against the instance's
  :meth:`~repro.lang.instance.Instance.scan` access path with a single
  mutable binding and trail-based undo, decoding ids back to terms
  only when a binding survives (at most one list index per bound
  variable) and copying the assignment only at yield.

The delta-restricted search of the semi-naive chase pins a fact into
the same plan (:meth:`JoinPlan.pin_binding` + the ``pin`` argument of
:meth:`JoinPlan.execute`): the pinned atom is unified directly against
the delta fact and the remaining atoms run through their own cached
order.

Orders are cached per plan together with the statistics observed when
they were chosen; statistics only break ties, so a stale snapshot can
never cost correctness -- but it *can* cost speed, so the cache is
generation-aware: when the instance's mutation counter has moved, the
current relation sizes are re-checked against the decision-time
snapshot and the order is recomputed once any body relation has grown
or shrunk by more than 4x.
"""

from __future__ import annotations

from functools import lru_cache, partial as partial_call
from operator import itemgetter
from typing import (Dict, Iterator, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.lang.atoms import Atom
from repro.lang.terms import GroundTerm, Variable
from repro.lang.instance import Instance
from repro.obs.metrics import OBS

#: A complete (or partial) homomorphism: variable -> ground term.
Assignment = Dict[Variable, GroundTerm]


class _AtomSpec:
    """Compiled shape of one body atom.

    Variables are taken from ``canonical`` (name -> the plan's one
    object for that name), so every binding-dict lookup of an execution
    matches on identity instead of calling ``Variable.__eq__``.
    """

    __slots__ = ("relation", "arity", "args", "ground_positions",
                 "var_positions", "variables")

    def __init__(self, atom: Atom, canonical: Dict[str, Variable]) -> None:
        self.relation = atom.relation
        self.arity = atom.arity
        self.args = tuple(canonical.setdefault(arg.name, arg)
                          if isinstance(arg, Variable) else arg
                          for arg in atom.args)
        ground: List[Tuple[int, GroundTerm]] = []
        by_var: List[Tuple[int, Variable]] = []
        for position, arg in enumerate(self.args):
            if isinstance(arg, Variable):
                by_var.append((position, arg))
            else:
                ground.append((position, arg))
        self.ground_positions = tuple(ground)
        self.var_positions = tuple(by_var)
        self.variables = frozenset(var for _, var in by_var)


class JoinPlan:
    """A compiled, reorderable join over a fixed atom sequence."""

    __slots__ = ("atoms", "specs", "variables", "variable_order", "_orders")

    def __init__(self, atoms: Sequence[Atom]) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        canonical: Dict[str, Variable] = {}
        self.specs: Tuple[_AtomSpec, ...] = tuple(
            _AtomSpec(atom, canonical) for atom in self.atoms)
        self.variables: frozenset = frozenset(
            var for spec in self.specs for var in spec.variables)
        #: the same variables sorted by name: the projection under
        #: which delta searches deduplicate, and the trigger index's
        #: key order
        self.variable_order: Tuple[Variable, ...] = tuple(
            sorted(self.variables, key=lambda var: var.name))
        #: (prebound variable set, pinned atom index) ->
        #: [order, decision-time relation sizes, instance id, generation]
        self._orders: Dict[Tuple[frozenset, Optional[int]], list] = {}

    # ------------------------------------------------------------------
    # Order selection
    # ------------------------------------------------------------------
    def order_for(self, instance: Instance, prebound: frozenset,
                  pin: Optional[int] = None) -> Tuple[int, ...]:
        """The cached atom order for this binding signature.

        Greedy most-constrained-first: repeatedly pick the atom with
        the most statically-bound argument positions, breaking ties by
        the instance's cardinality estimate -- the relation size, sharpened
        to the smallest posting list of any ground argument -- and then
        by body position.  Bound-ness propagates statically: after an
        atom is placed, its variables count as bound for the rest.

        Cached orders carry the relation sizes they were decided on.
        While the instance's :attr:`~repro.lang.instance.Instance
        .generation` is unchanged the cache hit is two comparisons;
        once it moves, the current sizes are compared against the
        *original* decision-time snapshot (no ratchet drift across
        repeated small shifts) and the order is recomputed when any
        body relation shifted by more than 4x in either direction.
        """
        key = (prebound, pin)
        entry = self._orders.get(key)
        if entry is not None:
            order, snapshot, instance_id, generation = entry
            if instance_id == id(instance) \
                    and generation == instance.generation:
                if OBS.enabled:
                    OBS.inc("plan.order_cache.hits")
                return order
            current = tuple(instance.relation_size(spec.relation)
                            for spec in self.specs)
            if all(cur <= 4 * max(old, 1) and old <= 4 * max(cur, 1)
                   for old, cur in zip(snapshot, current)):
                # Same ballpark: keep the order, refresh the fast path
                # (sizes were just verified against the snapshot).
                entry[2] = id(instance)
                entry[3] = instance.generation
                if OBS.enabled:
                    OBS.inc("plan.order_cache.revalidated")
                return order
            if OBS.enabled:
                OBS.inc("plan.order_cache.invalidations")
        elif OBS.enabled:
            OBS.inc("plan.order_cache.misses")
        id_of = instance.terms.id_of
        bound: Set[Variable] = set(prebound)
        if pin is not None:
            bound |= self.specs[pin].variables
        remaining = [i for i in range(len(self.specs)) if i != pin]
        chosen: List[int] = []
        while remaining:
            best = None
            best_score = None
            for index in remaining:
                spec = self.specs[index]
                bound_args = len(spec.ground_positions) + sum(
                    1 for _, var in spec.var_positions if var in bound)
                estimate = instance.relation_size(spec.relation)
                for position, term in spec.ground_positions:
                    tid = id_of(term)
                    posting = (0 if tid is None else instance.posting_size(
                        spec.relation, position, tid))
                    if posting < estimate:
                        estimate = posting
                score = (-bound_args, estimate, index)
                if best_score is None or score < best_score:
                    best, best_score = index, score
            chosen.append(best)
            remaining.remove(best)
            bound |= self.specs[best].variables
        order = tuple(chosen)
        self._orders[key] = [
            order,
            tuple(instance.relation_size(spec.relation)
                  for spec in self.specs),
            id(instance), instance.generation]
        return order

    # ------------------------------------------------------------------
    # Delta-fact pinning
    # ------------------------------------------------------------------
    def pin_binding(self, pin: int, fact: Atom,
                    binding: Mapping[Variable, GroundTerm]
                    ) -> Optional[Assignment]:
        """Unify atom ``pin`` with ``fact`` under ``binding``.

        Returns the *new* variable bindings on success (possibly
        empty), or None when the fact does not unify.
        """
        spec = self.specs[pin]
        if fact.relation != spec.relation or fact.arity != spec.arity:
            return None
        args = fact.args
        for position, term in spec.ground_positions:
            if args[position] != term:
                return None
        new_entries: Assignment = {}
        for position, var in spec.var_positions:
            value = args[position]
            known = binding.get(var)
            if known is None:
                known = new_entries.get(var)
            if known is None:
                new_entries[var] = value
            elif known != value:
                return None
        return new_entries

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, instance: Instance,
                partial: Optional[Mapping[Variable, GroundTerm]] = None,
                pin_index: Optional[int] = None,
                pin_entries: Optional[Assignment] = None,
                limit: Optional[int] = None,
                prune=None,
                project: Optional[Tuple[Variable, ...]] = None,
                partial_ids: Optional[Mapping[Variable, int]] = None
                ) -> Iterator[Assignment]:
        """Enumerate homomorphisms of the compiled body into ``instance``.

        ``partial`` pre-binds variables to terms, ``partial_ids`` to
        interned ids of ``instance``'s term table (the trigger index's
        head checks hold their frontier as ids already);
        ``pin_index``/``pin_entries`` (from :meth:`pin_binding`) exclude
        one atom whose bindings were already unified against a delta
        fact; ``limit`` caps the number of yields.  Yielded assignments
        are fresh term-level dicts including the pre-bound variables.

        ``project``, if given, is a projection push-down: instead of
        decoded assignment dicts the iterator yields plain tuples of
        *interned term ids*, one per listed variable (which must all
        occur in the body or be pre-bound).  No term is decoded and no
        dict is built per result -- the access path compiled query
        evaluation (:mod:`repro.cq.evaluate`) runs on, where answers
        are deduplicated and null-filtered at the id level before any
        decoding happens.

        The join runs entirely over interned ids: ``prune``, if given,
        is called with the *id-level* binding (variable -> term id)
        after each extension -- returning True abandons the subtree --
        and terms are decoded only at yield.

        Candidate rows come from the instance's id-level ``scan``; a
        suspended enumeration keeps consistent snapshots of the access
        path, so yields that outlive later mutations must be
        re-validated by the caller (the trigger index does).

        The join walks the atom order with an explicit stack of scans
        rather than a recursive generator: a generator that recurses
        into itself holds its own function in a closure cell, and that
        cycle outlived every search until the cyclic collector ran.
        """
        if OBS.enabled:
            OBS.inc("plan.executions")
        table = instance.terms
        intern = table.intern
        term_of = table.term
        binding_ids: Dict[Variable, int] = (
            dict(partial_ids) if partial_ids else {})
        if partial:
            for var, value in partial.items():
                binding_ids[var] = intern(value)

        if project is None:
            def emit():
                return {var: term_of(tid)
                        for var, tid in binding_ids.items()}
        elif len(project) > 1:
            emit = partial_call(itemgetter(*project), binding_ids)
        else:
            def emit():
                return tuple([binding_ids[var] for var in project])
        if prune is not None and prune(binding_ids):
            return
        if pin_entries:
            for var, value in pin_entries.items():
                binding_ids[var] = intern(value)
            if prune is not None and prune(binding_ids):
                return
        specs = self.specs
        # Trivial: empty body, or the pin consumed the only atom.
        if not specs or (len(specs) == 1 and pin_index is not None):
            yield emit()
            return
        scan = instance.scan

        # Fully-bound fast path: every plan variable is already bound,
        # so the join degenerates into one id-level containment probe
        # per atom (the shape of head-extension checks on full
        # frontiers -- O(1) row_of lookups in the instance).
        if all(var in binding_ids for var in self.variables):
            for index, spec in enumerate(specs):
                if index == pin_index:
                    continue
                ids = tuple(binding_ids[arg] if isinstance(arg, Variable)
                            else intern(arg) for arg in spec.args)
                if not instance.has_row(spec.relation, spec.arity, ids):
                    return
            yield emit()
            return

        # Variables the prune predicate reads (when declared): a True
        # answer on a row that bound none of them holds for every other
        # row of the same scan, so the whole scan can be abandoned.
        prune_reads = getattr(prune, "depends_on", None) \
            if prune is not None else None

        # Single unpinned atom: flat scan loop, no order / recursion.
        if len(specs) - (0 if pin_index is None else 1) == 1:
            index = next(i for i in range(len(specs)) if i != pin_index)
            spec = specs[index]
            bound: List[Tuple[int, int]] = [
                (position, intern(term))
                for position, term in spec.ground_positions]
            unbound: List[Tuple[int, Variable]] = []
            for position, var in spec.var_positions:
                tid = binding_ids.get(var)
                if tid is not None:
                    bound.append((position, tid))
                else:
                    unbound.append((position, var))
            abandon_on_prune = (prune_reads is not None
                                and not any(var in prune_reads
                                            for _, var in unbound))
            produced = 0
            for row in scan(spec.relation, spec.arity, bound):
                local: Dict[Variable, int] = {}
                consistent = True
                for position, var in unbound:
                    tid = row[position]
                    known = local.get(var)
                    if known is None:
                        local[var] = tid
                    elif known != tid:
                        consistent = False
                        break
                if not consistent:
                    continue
                if local:
                    binding_ids.update(local)
                    if prune is not None and prune(binding_ids):
                        for var in local:
                            del binding_ids[var]
                        if abandon_on_prune:
                            return
                        continue
                produced += 1
                yield emit()
                for var in local:
                    del binding_ids[var]
                if limit is not None and produced >= limit:
                    return
            return

        prebound = frozenset(var for var in binding_ids
                             if var in self.variables)
        order = self.order_for(instance, prebound, pin_index)
        last = len(order) - 1
        produced = 0
        # Ground argument ids are interned once per execution.
        ground_ids: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        # One entry per depth of the order: the open scan, the
        # (position, variable) pairs its rows bind, whether a prune hit
        # abandons the whole scan, and what the current row bound.
        scans: List[Optional[Iterator[Tuple[int, ...]]]] = [None] * len(order)
        frees: List[List[Tuple[int, Variable]]] = [[]] * len(order)
        abandons = [False] * len(order)
        bound_here: List[Dict[Variable, int]] = [{}] * len(order)
        depth = 0
        while depth >= 0:
            rows = scans[depth]
            if rows is None:
                index = order[depth]
                spec = specs[index]
                if spec.ground_positions:
                    pairs = ground_ids.get(index)
                    if pairs is None:
                        pairs = tuple((position, intern(term)) for position,
                                      term in spec.ground_positions)
                        ground_ids[index] = pairs
                    bound = list(pairs)
                else:
                    bound = []
                unbound: List[Tuple[int, Variable]] = []
                for position, var in spec.var_positions:
                    tid = binding_ids.get(var)
                    if tid is not None:
                        bound.append((position, tid))
                    else:
                        unbound.append((position, var))
                frees[depth] = unbound
                abandons[depth] = (prune_reads is not None
                                   and not any(var in prune_reads
                                               for _, var in unbound))
                rows = scans[depth] = scan(spec.relation, spec.arity, bound)
            else:
                # Back from the deeper scan: undo this row's bindings.
                for var in bound_here[depth]:
                    del binding_ids[var]
            unbound = frees[depth]
            descend = False
            for row in rows:
                local: Dict[Variable, int] = {}
                consistent = True
                for position, var in unbound:
                    tid = row[position]
                    known = local.get(var)
                    if known is None:
                        local[var] = tid
                    elif known != tid:
                        consistent = False
                        break
                if not consistent:
                    continue
                if local:
                    binding_ids.update(local)
                    if prune is not None and prune(binding_ids):
                        for var in local:
                            del binding_ids[var]
                        if abandons[depth]:
                            break
                        continue
                if depth == last:
                    produced += 1
                    yield emit()
                    for var in local:
                        del binding_ids[var]
                    if limit is not None and produced >= limit:
                        return
                    continue
                bound_here[depth] = local
                descend = True
                break
            if descend:
                depth += 1
            else:
                scans[depth] = None
                depth -= 1


@lru_cache(maxsize=4096)
def compile_plan(atoms: Tuple[Atom, ...]) -> JoinPlan:
    """The compiled plan of an atom tuple.

    Cached on the tuple itself: constraint bodies and heads are
    immutable tuples, so every search over the same body shares one
    plan (and its accumulated order cache) for the process lifetime.
    """
    return JoinPlan(atoms)
