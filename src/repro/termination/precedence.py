"""The firing-precedence relations: ``<`` (Def. 2), ``<_c`` (Def. 4),
``<_P`` (Def. 10) and ``<_k,P`` (Def. 14).

All four relations ask whether firing some constraint(s) can *newly*
violate another constraint.  Decidability rests on the bounded-candidate
argument of the paper (Prop. 3 and the proof of Prop. 1): it suffices to
examine candidate databases that are unions of homomorphic images of the
constraint bodies, of size at most the sum of the constraint lengths.

Instead of enumerating all such candidates eagerly (Bell-number blowup),
this module runs a *forward search*: the candidate instance ``I0`` is
grown lazily while homomorphisms for the step bodies and the final
violation are searched.  Every body atom either matches an existing fact
(of ``I0`` or of an earlier step's head image) or is *created* as a new
``I0`` fact whose arguments come from the current term pool, the
constraint constants, or fresh labeled nulls.  Created atoms never
contain step-created nulls (``I0`` predates the steps).  For TGD-only
inputs this search is complete: any real witness restricts to an
isomorphic copy reachable by the search (see docs/PAPER_MAP.md).

Two interpretation points, fixed here and documented in
docs/PAPER_MAP.md ("Deviations and interpretation points"):

* **Definition 4 erratum.**  As printed, Def. 4 keeps condition
  "(i) I |/= alpha(a)", under which the oblivious step never differs
  from the standard one and Example 7 fails.  The corrected relation
  drops (i); pass ``printed_variant=True`` to get the literal text.

* **Skip replays in Def. 14.**  The side condition "for every
  i in [k-1]: J_{k-1} is defined and J_{k-1} |= alpha_k(a_k)" is
  evaluated by *replaying* the remaining steps in order with their
  original parameters and original fresh nulls; a TGD step whose body
  is absent from the replayed prefix is a no-op (its trigger never
  existed in that world), and an EGD step equating two distinct
  constants makes the replay undefined.  This is the unique reading we
  found under which Example 15's frontier (``Sigma_m`` admits
  ``<_{m,empty}`` chains but not ``<_{m+1,empty}`` ones, hence
  ``Sigma_m in T[m+1]``, matching "Figure 2 ... is contained in level
  T[3]") checks out.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lang.atoms import Atom, Position
from repro.lang.constraints import Constraint, EGD, TGD, rename_apart
from repro.lang.terms import (Constant, GroundTerm, Null, NullFactory,
                              Variable)

#: default search-node budget per relation query; exhausting it returns
#: the *conservative* answer True (more edges can only weaken, never
#: wrongly strengthen, a termination guarantee).
DEFAULT_NODE_BUDGET = 20_000_000


class _BudgetExhausted(Exception):
    """Internal: the per-query search budget ran out."""


class _StepRecord:
    """One executed oblivious/standard step inside a candidate world."""

    __slots__ = ("constraint", "binding", "body_atoms", "head_atoms",
                 "fresh_nulls", "saved_j")

    def __init__(self, constraint: Constraint,
                 binding: Dict[Variable, GroundTerm],
                 body_atoms: Tuple[Atom, ...],
                 head_atoms: Tuple[Atom, ...],
                 fresh_nulls: Tuple[Null, ...],
                 saved_j: Optional[Set[Atom]] = None) -> None:
        self.constraint = constraint
        self.binding = binding
        self.body_atoms = body_atoms
        self.head_atoms = head_atoms
        self.fresh_nulls = fresh_nulls
        self.saved_j = saved_j


class _Ctx:
    """Mutable search state: the candidate ``I0`` and the step stack."""

    def __init__(self, constants: Sequence[Constant], budget: int) -> None:
        self.i_facts: Set[Atom] = set()
        self.j_facts: Set[Atom] = set()
        self.pool: List[GroundTerm] = []
        self.pool_set: Set[GroundTerm] = set()
        self.step_nulls: Set[Null] = set()
        self.removed_terms: Set[GroundTerm] = set()
        self.steps: List[_StepRecord] = []
        self.constants: List[Constant] = list(dict.fromkeys(constants))
        self.nulls = NullFactory()
        self.budget = budget

    def tick(self) -> None:
        """Spend one unit of search budget; abort the decision
        procedure when it runs out."""
        self.budget -= 1
        if self.budget <= 0:
            raise _BudgetExhausted

    # -- I0 mutation with undo ----------------------------------------
    def add_i_fact(self, fact: Atom) -> tuple:
        """Add a created fact to I0 (and J); return an undo token."""
        new_i = fact not in self.i_facts
        new_j = fact not in self.j_facts
        if new_i:
            self.i_facts.add(fact)
        if new_j:
            self.j_facts.add(fact)
        added_terms = []
        for term in fact.args:
            if term not in self.pool_set:
                self.pool.append(term)
                self.pool_set.add(term)
                added_terms.append(term)
        return (fact, new_i, new_j, added_terms)

    def undo_i_fact(self, token: tuple) -> None:
        """Roll back a speculative :meth:`add_i_fact` (backtracking)."""
        fact, new_i, new_j, added_terms = token
        if new_i:
            self.i_facts.discard(fact)
        if new_j:
            self.j_facts.discard(fact)
        for term in added_terms:
            self.pool.remove(term)
            self.pool_set.discard(term)


def _ground(atoms: Iterable[Atom], binding: Dict[Variable, GroundTerm]
            ) -> Tuple[Atom, ...]:
    return tuple(atom.substitute(binding) for atom in atoms)


def _match(atom: Atom, fact: Atom, binding: Dict[Variable, GroundTerm]
           ) -> Optional[Dict[Variable, GroundTerm]]:
    """Unify a body atom with a fact; return an extended binding."""
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    extension: Dict[Variable, GroundTerm] = {}
    for arg, value in zip(atom.args, fact.args):
        if isinstance(arg, Variable):
            bound = binding.get(arg, extension.get(arg))
            if bound is None:
                extension[arg] = value
            elif bound != value:
                return None
        elif arg != value:
            return None
    if not extension:
        return binding
    merged = dict(binding)
    merged.update(extension)
    return merged


def _open_hom(atoms: Sequence[Atom], binding: Dict[Variable, GroundTerm],
              ctx: _Ctx, allow_creation: bool = True):
    """Enumerate homomorphisms of ``atoms`` into the current world.

    Each atom either matches a fact of ``ctx.j_facts`` or, when
    ``allow_creation``, is created as a fresh ``I0`` fact (arguments
    from the I0 term pool, the constraint constants, or fresh nulls --
    never step-created nulls).  Creations are undone on backtracking.
    Yields complete bindings; the created facts stay in ``ctx`` for the
    duration of the downstream exploration.
    """
    ctx.tick()
    if not atoms:
        yield binding
        return
    # Most-constrained-first atom ordering.
    def bound_count(atom: Atom) -> int:
        return sum(1 for a in atom.args
                   if not isinstance(a, Variable) or a in binding)
    best = max(range(len(atoms)), key=lambda i: bound_count(atoms[i]))
    atom = atoms[best]
    rest = list(atoms[:best]) + list(atoms[best + 1:])

    # Option A: match an existing fact (of I0 or of a step head image).
    for fact in [f for f in ctx.j_facts if f.relation == atom.relation]:
        extended = _match(atom, fact, binding)
        if extended is not None:
            yield from _open_hom(rest, extended, ctx, allow_creation)

    if not allow_creation:
        return

    # Option B: create the atom as a new I0 fact.  Unbound variables
    # range over the pool, the constants, and a fresh null; choices are
    # made variable-by-variable so a fresh null chosen for one variable
    # is visible to the next.
    unbound = []
    seen: Set[Variable] = set()
    for arg in atom.args:
        if isinstance(arg, Variable) and arg not in binding and arg not in seen:
            unbound.append(arg)
            seen.add(arg)

    def choose(index: int, local: Dict[Variable, GroundTerm],
               fresh_terms: List[GroundTerm]):
        ctx.tick()
        if index == len(unbound):
            merged = dict(binding)
            merged.update(local)
            grounded = atom.substitute(merged)
            # I0 exists before the steps: it can contain neither
            # step-created nulls nor terms removed by an EGD step.
            if any(a in ctx.step_nulls or a in ctx.removed_terms
                   for a in grounded.args):
                return
            token = ctx.add_i_fact(grounded)
            try:
                yield from _open_hom(rest, merged, ctx, allow_creation)
            finally:
                ctx.undo_i_fact(token)
            return
        var = unbound[index]
        candidates: List[GroundTerm] = [t for t in ctx.pool
                                        if t not in ctx.step_nulls]
        candidates += [c for c in ctx.constants if c not in ctx.pool_set]
        candidates += fresh_terms
        for term in candidates:
            local[var] = term
            yield from choose(index + 1, local, fresh_terms)
            del local[var]
        fresh = ctx.nulls.fresh()
        local[var] = fresh
        yield from choose(index + 1, local, fresh_terms + [fresh])
        del local[var]

    yield from choose(0, {}, [])


def _apply_oblivious_tgd(ctx: _Ctx, tgd: TGD,
                         binding: Dict[Variable, GroundTerm]) -> _StepRecord:
    extension = dict(binding)
    fresh: List[Null] = []
    for var in sorted(tgd.existential_variables(), key=lambda v: v.name):
        null = ctx.nulls.fresh()
        extension[var] = null
        fresh.append(null)
        ctx.step_nulls.add(null)
    head_atoms = _ground(tgd.head, extension)
    record = _StepRecord(tgd, dict(binding), _ground(tgd.body, binding),
                         head_atoms, tuple(fresh), saved_j=set(ctx.j_facts))
    ctx.j_facts |= set(head_atoms)
    ctx.steps.append(record)
    return record


def _undo_step(ctx: _Ctx, record: _StepRecord) -> None:
    ctx.steps.pop()
    for null in record.fresh_nulls:
        ctx.step_nulls.discard(null)
    # Restore the pre-step J snapshot, keeping any I0 facts created by
    # deeper searches (they belong to every world).
    assert record.saved_j is not None
    ctx.j_facts = record.saved_j | ctx.i_facts


def _replay_without(ctx: _Ctx, skip_index: int) -> Optional[Set[Atom]]:
    """The skip-replay semantics of docs/PAPER_MAP.md (Def. 14
    interpretation point): replay all steps except
    ``skip_index`` in order with original parameters and nulls; TGD
    steps whose body is absent are no-ops.  Returns the resulting fact
    set, or None if the replay is undefined."""
    world: Set[Atom] = set(ctx.i_facts)
    for index, step in enumerate(ctx.steps):
        if index == skip_index:
            continue
        if isinstance(step.constraint, TGD):
            if all(atom in world for atom in step.body_atoms):
                world |= set(step.head_atoms)
        else:
            egd = step.constraint
            assert isinstance(egd, EGD)
            left = step.binding[egd.lhs]
            right = step.binding[egd.rhs]
            if left == right:
                continue
            if not all(atom in world for atom in step.body_atoms):
                continue
            if isinstance(right, Null):
                old, new = right, left
            elif isinstance(left, Null):
                old, new = left, right
            else:
                return None  # chase failure: replay undefined
            world = {atom.substitute({old: new}) for atom in world}
    return world


def _extension_exists(ctx: _Ctx, tgd: TGD,
                      binding: Dict[Variable, GroundTerm],
                      facts: Set[Atom]) -> bool:
    """Does the frontier part of ``binding`` extend to a homomorphism
    of the head into ``facts``?  (Set-based, no Instance indexing.)"""
    frontier = {var: binding[var] for var in tgd.frontier_variables()}
    by_relation: Dict[str, List[Atom]] = {}
    for fact in facts:
        by_relation.setdefault(fact.relation, []).append(fact)
    head = list(tgd.head)

    def rec(index: int, current: Dict[Variable, GroundTerm]) -> bool:
        ctx.tick()
        if index == len(head):
            return True
        atom = head[index]
        for fact in by_relation.get(atom.relation, ()):
            extended = _match(atom, fact, current)
            if extended is not None and rec(index + 1, extended):
                return True
        return False

    return rec(0, frontier)


def _satisfied_in_world(ctx: _Ctx, constraint: Constraint,
                        binding: Dict[Variable, GroundTerm],
                        facts: Set[Atom]) -> bool:
    """``facts |= constraint(binding)`` over a plain fact set."""
    grounded_body = _ground(constraint.body, binding)
    if not all(atom in facts for atom in grounded_body):
        return True
    if isinstance(constraint, TGD):
        return _extension_exists(ctx, constraint, binding, facts)
    assert isinstance(constraint, EGD)
    return binding[constraint.lhs] == binding[constraint.rhs]


def _head_parameter_variables(constraint: Constraint) -> Set[Variable]:
    """Universal variables occurring "in the head" (Def. 10's n)."""
    if isinstance(constraint, TGD):
        return constraint.frontier_variables()
    assert isinstance(constraint, EGD)
    return {constraint.lhs, constraint.rhs}


def _null_condition_holds(ctx: _Ctx, final: Constraint,
                          binding: Dict[Variable, GroundTerm],
                          positions: frozenset) -> bool:
    """Exists n in b cap Delta_null occurring in head(beta(b)) with
    ``null-pos({n}, I0) subseteq P``."""
    for var in _head_parameter_variables(final):
        value = binding.get(var)
        if not isinstance(value, Null):
            continue
        if value in ctx.step_nulls:
            return True  # does not occur in I0 at all
        occupied = {Position(fact.relation, i + 1)
                    for fact in ctx.i_facts
                    for i, arg in enumerate(fact.args) if arg == value}
        if occupied <= positions:
            return True
    return False


def _final_conditions(ctx: _Ctx, final: Constraint,
                      binding: Dict[Variable, GroundTerm],
                      positions: Optional[frozenset],
                      first: Constraint,
                      first_binding: Optional[Dict[Variable, GroundTerm]],
                      require_standard_step: bool) -> bool:
    """Check every remaining witness condition for a candidate.

    Ordered cheapest-first; all checks operate on plain fact sets.
    """
    # Null side condition (<_P and <_k,P only): dictionary lookups.
    if positions is not None and not _null_condition_holds(
            ctx, final, binding, positions):
        return False
    grounded_body = _ground(final.body, binding)
    # Sound prune: removing the *last* step cannot cascade (nothing
    # follows it), so its skip replay keeps every other atom; the final
    # body must therefore use one of its additions (TGD steps only).
    if ctx.steps and isinstance(ctx.steps[-1].constraint, TGD):
        last = ctx.steps[-1]
        last_added = set(last.head_atoms) - (last.saved_j or set())
        if not any(atom in last_added for atom in grounded_body):
            return False
    # (iv) J |/= beta(b): the body is in J by construction of the
    # homomorphism search, so only the head-extension must fail.
    if not all(atom in ctx.j_facts for atom in grounded_body):
        return False  # defensive; should not happen
    if isinstance(final, TGD):
        if _extension_exists(ctx, final, binding, ctx.j_facts):
            return False
    else:
        assert isinstance(final, EGD)
        if binding[final.lhs] == binding[final.rhs]:
            return False
    # Skip conditions; for k = 2 the single skip is exactly
    # "(ii) I0 |= beta(b)" of Definitions 2 and 10.
    for skip_index in range(len(ctx.steps)):
        world = _replay_without(ctx, skip_index)
        if world is None:
            return False
        if not _satisfied_in_world(ctx, final, binding, world):
            return False
    # (i) of Definition 2: the first step must be a *standard* step,
    # i.e. alpha was violated in I0 under its trigger.
    if require_standard_step:
        assert first_binding is not None
        if isinstance(first, TGD):
            if _extension_exists(ctx, first, first_binding, ctx.i_facts):
                return False
        # For an EGD the step's applicability (mu(xi) != mu(xj)) was
        # enforced when the step executed.
    return True


def _relation_feasible(chain: Sequence[Constraint]) -> bool:
    """Relation-level necessary condition for a chain witness.

    Removing any step must cascade (forward, through body dependencies)
    into the final violated body; ground dependencies imply
    relation-level ones, so every step index must reach the final index
    in the DAG with edges ``i -> j`` (i < j) iff some head relation of
    ``alpha_i`` occurs in the body of ``alpha_j``.  Chains containing
    EGD steps are exempted (their removal cascades through
    substitutions, not atoms).
    """
    k = len(chain)
    steps = chain[:-1]
    if any(not isinstance(c, TGD) for c in steps):
        return True
    heads = [{atom.relation for atom in c.head}  # type: ignore[union-attr]
             for c in steps]
    bodies = [{atom.relation for atom in c.body} for c in chain]
    reaches: Set[int] = {k - 1}
    changed = True
    while changed:
        changed = False
        for i in range(k - 2, -1, -1):
            if i in reaches:
                continue
            if any(j in reaches and heads[i] & bodies[j]
                   for j in range(i + 1, k)):
                reaches.add(i)
                changed = True
    return all(i in reaches for i in range(k - 1))


def _search(chain: Sequence[Constraint], positions: Optional[frozenset],
            require_standard_step: bool, node_budget: int) -> bool:
    """Core witness search shared by all four relations.

    ``chain`` is ``(alpha_1, ..., alpha_k)``: the first ``k-1``
    constraints execute one (oblivious or standard) step each and
    ``alpha_k`` must end up newly violated.
    """
    if not _relation_feasible(chain):
        return False
    renamed = [rename_apart(c, f"__c{i}") for i, c in enumerate(chain)]
    *step_constraints, final = renamed
    constants: List[Constant] = []
    for constraint in renamed:
        constants.extend(sorted(constraint.constants(),
                                key=lambda c: str(c.value)))
    ctx = _Ctx(constants, node_budget)
    first_binding_box: List[Optional[Dict[Variable, GroundTerm]]] = [None]

    def run_steps(index: int):
        if index == len(step_constraints):
            yield True
            return
        constraint = step_constraints[index]
        # Every generator here is closed explicitly: one that is left
        # to the collector runs its ``finally`` blocks during
        # deallocation, where CPython prints and drops any exception
        # -- an oracle deadline's included.
        with closing(_open_hom(list(constraint.body), {}, ctx)) as found:
            for binding in found:
                if index == 0:
                    first_binding_box[0] = dict(binding)
                if isinstance(constraint, TGD):
                    record = _apply_oblivious_tgd(ctx, constraint, binding)
                    # Sound prune: a step that adds nothing leaves
                    # J_skip equal to J_{k-1}, where the final
                    # constraint must be violated -- its skip condition
                    # can never hold.
                    added_something = bool(set(record.head_atoms)
                                           - (record.saved_j or set()))
                    try:
                        if added_something:
                            yield from run_steps(index + 1)
                    finally:
                        _undo_step(ctx, record)
                else:
                    assert isinstance(constraint, EGD)
                    left = binding[constraint.lhs]
                    right = binding[constraint.rhs]
                    if left == right:
                        continue
                    if isinstance(right, Null):
                        old, new = right, left
                    elif isinstance(left, Null):
                        old, new = left, right
                    else:
                        continue  # failing step: not a usable witness
                    saved_i = set(ctx.i_facts)
                    saved_j = set(ctx.j_facts)
                    newly_removed = old not in ctx.removed_terms
                    record = _StepRecord(constraint, dict(binding),
                                         _ground(constraint.body, binding),
                                         (), ())
                    # EGD steps substitute in J only; I0 stays as built.
                    ctx.j_facts = {a.substitute({old: new})
                                   for a in ctx.j_facts}
                    ctx.steps.append(record)
                    ctx.removed_terms.add(old)
                    try:
                        yield from run_steps(index + 1)
                    finally:
                        ctx.steps.pop()
                        if newly_removed:
                            ctx.removed_terms.discard(old)
                        ctx.i_facts = saved_i
                        ctx.j_facts = saved_j

    def final_bindings():
        """Enumerate final-body homomorphisms.

        When the last step is a TGD, every witness's final body must
        use one of its added facts (removing the last step cannot
        cascade further); seeding the search with that match prunes the
        bulk of the final-stage space.
        """
        body = list(final.body)
        if not ctx.steps or not isinstance(ctx.steps[-1].constraint, TGD):
            yield from _open_hom(body, {}, ctx)
            return
        last = ctx.steps[-1]
        last_added = [a for a in last.head_atoms
                      if last.saved_j is None or a not in last.saved_j]
        for i, atom in enumerate(body):
            for fact in last_added:
                seeded = _match(atom, fact, {})
                if seeded is None:
                    continue
                rest = body[:i] + body[i + 1:]
                yield from _open_hom(rest, seeded, ctx)

    try:
        with closing(run_steps(0)) as worlds:
            for _ in worlds:
                with closing(final_bindings()) as finals:
                    for binding in finals:
                        if _final_conditions(ctx, final, binding, positions,
                                             renamed[0], first_binding_box[0],
                                             require_standard_step):
                            return True
    except _BudgetExhausted:
        warnings.warn(
            "precedence search budget exhausted for "
            f"{[c.display_name() for c in chain]}; returning the "
            "conservative answer True", RuntimeWarning, stacklevel=2)
        return True
    return False


class PrecedenceOracle:
    """Memoizing front-end for the four firing relations.

    Results are cached per constraint tuple; for the position-dependent
    relations the cache exploits monotonicity in ``P`` (a witness for
    ``P'`` also works for every ``P >= P'``, and a failure for ``P'``
    rules out every ``P <= P'``).
    """

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET) -> None:
        self.node_budget = node_budget
        self._plain: Dict[tuple, bool] = {}
        self._positional: Dict[tuple, List[Tuple[frozenset, bool]]] = {}

    # -- Definition 2 ---------------------------------------------------
    def precedes(self, alpha: Constraint, beta: Constraint) -> bool:
        """``alpha < beta``: a standard alpha-step can newly violate
        beta (Definition 2)."""
        key = ("std", alpha, beta)
        if key not in self._plain:
            self._plain[key] = _search((alpha, beta), None, True,
                                       self.node_budget)
        return self._plain[key]

    # -- Definition 4 (corrected) ----------------------------------------
    def precedes_c(self, alpha: Constraint, beta: Constraint,
                   printed_variant: bool = False) -> bool:
        """``alpha <_c beta``: an *oblivious* alpha-step can newly
        violate beta.  ``printed_variant=True`` re-adds the (i)
        condition exactly as printed in the technical report (under
        which Example 7 does not check out; see docs/PAPER_MAP.md)."""
        key = ("c", alpha, beta, printed_variant)
        if key not in self._plain:
            self._plain[key] = _search((alpha, beta), None, printed_variant,
                                       self.node_budget)
        return self._plain[key]

    # -- Definition 10 ----------------------------------------------------
    def precedes_p(self, alpha: Constraint, beta: Constraint,
                   positions: Iterable[Position]) -> bool:
        """``alpha <_P beta`` (Definition 10)."""
        return self.precedes_k((alpha, beta), positions)

    # -- Definition 14 ----------------------------------------------------
    def precedes_k(self, chain: Sequence[Constraint],
                   positions: Iterable[Position]) -> bool:
        """``<_{k,P}(alpha_1, ..., alpha_k)`` (Definition 14)."""
        chain = tuple(chain)
        if len(chain) < 2:
            raise ValueError("the relation needs at least two constraints")
        pset = frozenset(positions)
        entries = self._positional.setdefault(chain, [])
        for cached_p, result in entries:
            if result and cached_p <= pset:
                return True
            if not result and cached_p >= pset:
                return False
        result = _search(chain, pset, False, self.node_budget)
        entries.append((pset, result))
        return result


#: module-level default oracle (shared cache across the library)
ORACLE = PrecedenceOracle()


def precedes(alpha: Constraint, beta: Constraint) -> bool:
    """Module-level convenience for :meth:`PrecedenceOracle.precedes`."""
    return ORACLE.precedes(alpha, beta)


def precedes_c(alpha: Constraint, beta: Constraint,
               printed_variant: bool = False) -> bool:
    """Module-level convenience for :meth:`PrecedenceOracle.precedes_c`."""
    return ORACLE.precedes_c(alpha, beta, printed_variant)


def precedes_p(alpha: Constraint, beta: Constraint,
               positions: Iterable[Position]) -> bool:
    """Module-level convenience for :meth:`PrecedenceOracle.precedes_p`."""
    return ORACLE.precedes_p(alpha, beta, positions)


def precedes_k(chain: Sequence[Constraint],
               positions: Iterable[Position]) -> bool:
    """Module-level convenience for :meth:`PrecedenceOracle.precedes_k`."""
    return ORACLE.precedes_k(chain, positions)
