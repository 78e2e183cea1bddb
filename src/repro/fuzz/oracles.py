"""Metamorphic oracles: the properties every generated case must obey.

Each oracle checks one universally-quantified claim of the paper (or
an implementation-level parity that follows from one) on a concrete
:class:`~repro.fuzz.generate.FuzzCase`:

* ``hierarchy``       -- every Figure 1 inclusion holds among the
  class-membership probes (safe => safely restricted => inductively
  restricted = T[2] <= T[3], weak acyclicity below safety and
  c-stratification, c-stratification below stratification);
* ``termination``     -- sets in an all-sequences class actually reach
  a fixpoint (Theorems 3/5/6/7); merely stratified sets terminate
  under Theorem 2's stratum order;
* ``engine_parity``   -- the indexed chase agrees with the naive chase
  (same finite status, homomorphically equivalent results), and the
  join-plan executor finds the same assignments as the reference
  search of :mod:`repro.homomorphism.reference` on the case's input
  instance and the result of a finite chase;
* ``order_cores``     -- results of different chase orders are
  homomorphically equivalent and their cores isomorphic (the paper's
  uniqueness-up-to-core claim, after [21]);
* ``certain_answers`` -- ``certain_answers`` is invariant under
  ``optimize=`` and equals the reference evaluation of the query on
  the terminated chase (Theorem 9 / Corollary 1: the answer set
  depends only on the knowledge base);
* ``service_parity``  -- the batch service returns byte-identical
  results to in-process execution, warm cache hits replay the cold
  run, and (sampled) a real worker pool agrees with both.

Oracles return a list of :class:`Violation` (empty = pass) and may
record *skips*: a comparison that is not meaningful for the case (a
run cut off by its step budget, core isomorphism on a set with no
termination guarantee) is skipped rather than failed.  Every budget is
a count, so verdicts and skips alike are deterministic.

Class-membership probes are bounded by the precedence oracle's node
budget; a search that exhausts it answers conservatively (an extra
precedence edge), which can only turn a membership verdict false.
Every oracle but ``hierarchy`` takes such verdicts as ordinary program
behaviour: they only withhold guarantees.  The hierarchy oracle
compares the verdicts of different conditions, where a conservative
answer can look like a broken inclusion, so it skips every case whose
probes read one.

The hierarchy oracle consults the module-level :data:`PROBES` table
rather than calling the termination predicates directly -- that
indirection is the **mutation seam** the fuzzer's own test suite uses
to prove the oracles are not vacuous (replace a probe with a lie and
the corpus must catch it).
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.chase.core import core
from repro.chase.result import ChaseResult, ChaseStatus
from repro.chase.runner import chase
from repro.chase.strategies import RandomStrategy, RoundRobinStrategy
from repro.fuzz.generate import FuzzCase
from repro.homomorphism.engine import (find_homomorphisms,
                                       find_homomorphisms_through,
                                       null_renaming_equivalent)
from repro.homomorphism.reference import (
    reference_answers, reference_find_homomorphisms,
    reference_find_homomorphisms_through)
from repro.kb.answering import certain_answers
from repro.lang.constraints import TGD
from repro.lang.errors import ReproError
from repro.lang.instance import Instance
from repro.lang.terms import NullFactory
from repro.service.cache import ServiceCache
from repro.service.jobs import ChaseJob, execute_any
from repro.service.scheduler import BatchScheduler
from repro.termination import (ORACLE, check_hierarchy_implications,
                               in_t_level, is_c_stratified,
                               is_inductively_restricted, is_safe,
                               is_safely_restricted, is_stratified,
                               is_weakly_acyclic, stratified_strategy)

_FINITE = (ChaseStatus.TERMINATED, ChaseStatus.FAILED)

#: Class-membership probes, name -> predicate over a constraint set.
#: The fuzzer's hierarchy oracle reads this table at call time, so
#: mutation tests can swap a probe for a deliberate lie and assert the
#: corpus flags it.  ``deep`` probes cost an |Sigma|^k sweep and are
#: sampled (see :attr:`OracleContext.deep_hierarchy_every`).
PROBES: "OrderedDict[str, Callable]" = OrderedDict([
    ("weakly_acyclic", is_weakly_acyclic),
    ("safe", is_safe),
    ("stratified", is_stratified),
    ("c_stratified", is_c_stratified),
])

DEEP_PROBES: "OrderedDict[str, Callable]" = OrderedDict([
    ("safely_restricted", is_safely_restricted),
    ("inductively_restricted", is_inductively_restricted),
    ("t2", lambda sigma: in_t_level(sigma, 2)),
    ("t3", lambda sigma: in_t_level(sigma, 3)),
])

#: Membership names that bound *every* chase sequence (Theorems
#: 3/5/6/7) -- the operational oracle's trigger condition.  The last
#: two live in :data:`DEEP_PROBES`, so they only participate on
#: sampled cases (verdict lookups use ``.get``).
ALL_SEQUENCE_CLASSES = ("weakly_acyclic", "safe", "c_stratified",
                        "safely_restricted", "inductively_restricted")


@dataclass(frozen=True)
class Violation:
    """One broken metamorphic property on one case."""

    oracle: str
    case_label: str
    detail: str

    def render(self) -> str:
        return f"[{self.oracle}] {self.case_label}: {self.detail}"


@dataclass
class OracleContext:
    """Budgets, sampling knobs and shared service state for a corpus.

    ``max_steps`` bounds every chase the oracles run (a divergent case
    is *skipped*, never allowed to hang the fuzzer).
    ``deep_hierarchy_every`` / ``pool_every`` sample the
    expensive probes (k-restriction sweeps, a real fork()ed worker
    pool) every Nth case; 0 disables them.  Schedulers are created
    lazily and shared across the whole corpus -- the pool forks once,
    then every sampled case reuses its persistent workers.
    """

    max_steps: int = 300
    deep_hierarchy_every: int = 4
    pool_every: int = 25
    skips: List[str] = field(default_factory=list)
    _case: Optional[FuzzCase] = None
    _memo: Dict = field(default_factory=dict)
    _inproc: Optional[BatchScheduler] = None
    _pool: Optional[BatchScheduler] = None

    # -- lifecycle ------------------------------------------------------
    def start_case(self, case: FuzzCase) -> None:
        self._case = case
        self._memo = {}

    def close(self) -> None:
        for scheduler in (self._inproc, self._pool):
            if scheduler is not None:
                scheduler.close()
        self._inproc = self._pool = None

    def __enter__(self) -> "OracleContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def skip(self, case: FuzzCase, oracle: str, reason: str) -> None:
        self.skips.append(f"[{oracle}] {case.label()}: {reason}")

    # -- memoized per-case runs -----------------------------------------
    def run_chase(self, case: FuzzCase, strategy_key: str = "round_robin",
                  naive: bool = False) -> ChaseResult:
        """One budgeted chase of the case, memoized per configuration
        (``naive=True`` runs without the trigger index).

        Every run uses a private :class:`NullFactory` (labels restart
        at 1) so configurations are comparable label-for-label where
        execution order happens to agree.
        """
        key = ("chase", strategy_key, naive)
        if key in self._memo:
            return self._memo[key]
        instance = case.instance
        if strategy_key == "round_robin":
            strategy = RoundRobinStrategy()
        elif strategy_key == "stratified":
            strategy = stratified_strategy(case.sigma)
        else:
            strategy = RandomStrategy(seed=int(strategy_key))
        result = chase(instance, list(case.sigma), strategy=strategy,
                       max_steps=self.max_steps, nulls=NullFactory(),
                       naive=naive)
        self._memo[key] = result
        return result

    def probes(self, case: FuzzCase, deep: bool = False) -> Dict[str, bool]:
        """Membership verdicts via :data:`PROBES` (re-read per call:
        the mutation seam), cheap ones always, deep ones on request."""
        return self.probe_run(case, deep)[0]

    def probe_run(self, case: FuzzCase, deep: bool = False
                  ) -> Tuple[Dict[str, bool], int]:
        """:meth:`probes`, and how many precedence answers they read
        that the node budget had cut short."""
        if ("probes", True) in self._memo:
            return self._memo[("probes", True)]
        key = ("probes", deep)
        if key not in self._memo:
            exhausted = ORACLE.exhausted
            verdicts = {name: bool(probe(case.sigma))
                        for name, probe in PROBES.items()}
            if deep:
                verdicts.update({name: bool(probe(case.sigma))
                                 for name, probe in DEEP_PROBES.items()})
            self._memo[key] = (verdicts, ORACLE.exhausted - exhausted)
        return self._memo[key]

    def deep_case(self, case: FuzzCase) -> bool:
        return (self.deep_hierarchy_every > 0
                and case.index % self.deep_hierarchy_every == 0)

    def pool_case(self, case: FuzzCase) -> bool:
        return self.pool_every > 0 and case.index % self.pool_every == 0

    # -- shared schedulers ----------------------------------------------
    def inproc_scheduler(self) -> BatchScheduler:
        if self._inproc is None:
            self._inproc = BatchScheduler(
                workers=1,
                cache=ServiceCache(result_size=64),
                unknown_step_cap=None)
        return self._inproc

    def pool_scheduler(self) -> BatchScheduler:
        if self._pool is None:
            self._pool = BatchScheduler(
                workers=2, cache=ServiceCache(result_size=0),
                unknown_step_cap=None)
        return self._pool


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def compare_finite_runs(left: ChaseResult, right: ChaseResult,
                        what: str) -> Optional[str]:
    """Compare two chase runs of the same case; None if consistent.

    Only *finite* outcomes are compared: if either side exceeded a
    budget the prefixes are incomparable (different trigger orders cut
    at different points) and the caller should skip.  For finite
    outcomes the classical chase theorems apply: both sequences fail,
    or both terminate with homomorphically equivalent results.
    """
    if left.status != right.status:
        return (f"{what}: status {left.status.value} vs "
                f"{right.status.value}")
    if left.status is ChaseStatus.TERMINATED \
            and not null_renaming_equivalent(left.instance, right.instance):
        return (f"{what}: terminated results are not homomorphically "
                f"equivalent ({len(left.instance)} vs "
                f"{len(right.instance)} facts)")
    return None


def both_finite(left: ChaseResult, right: ChaseResult) -> bool:
    return left.status in _FINITE and right.status in _FINITE


def _assignments(found: Iterable[dict]) -> Counter:
    return Counter(frozenset(assignment.items()) for assignment in found)


def search_mismatches(case: FuzzCase, instance: Instance) -> List[str]:
    """Where the join-plan executor and the reference search find
    different assignments on ``instance``; empty when they agree.

    Covers every constraint body and the query body, each as a full
    search and as the delta search through each input fact the
    instance holds, and each TGD head with every frontier binding of
    its body bound.  One line per kind of search that disagrees, in a
    fixed order, so the report does not depend on the hash seed.
    """
    out: List[str] = []

    def check(what: str, pairs: list) -> None:
        wrong = sum(_assignments(plan) != _assignments(reference)
                    for plan, reference in pairs)
        if wrong:
            out.append(f"{what}: {wrong} of {len(pairs)} searches find "
                       "other assignments than the reference search")

    deltas = [fact for fact in case.instance if fact in instance]
    bodies = [(constraint.display_name(), list(constraint.body))
              for constraint in case.sigma]
    bodies.append(("the query", list(case.query.body)))
    for name, atoms in bodies:
        check(f"body of {name}",
              [(find_homomorphisms(atoms, instance),
                reference_find_homomorphisms(atoms, instance))])
        check(f"delta searches of {name}",
              [(find_homomorphisms_through(atoms, instance, fact),
                reference_find_homomorphisms_through(atoms, instance, fact))
               for fact in deltas])
    for constraint in case.sigma:
        if not isinstance(constraint, TGD):
            continue
        frontier = constraint.frontier_variables()
        bindings = {frozenset((var, assignment[var]) for var in frontier)
                    for assignment in reference_find_homomorphisms(
                        list(constraint.body), instance)}
        head = list(constraint.head)
        check(f"head of {constraint.display_name()} with its frontier bound",
              [(find_homomorphisms(head, instance, dict(binding)),
                reference_find_homomorphisms(head, instance, dict(binding)))
               for binding in bindings])
    return out


# ----------------------------------------------------------------------
# the oracles
# ----------------------------------------------------------------------
def oracle_hierarchy(case: FuzzCase, ctx: OracleContext) -> List[Violation]:
    """Figure 1's inclusions hold among the membership probes."""
    deep = ctx.deep_case(case)
    verdicts, exhausted = ctx.probe_run(case, deep=deep)
    if exhausted:
        ctx.skip(case, "hierarchy", "precedence answers cut short by "
                                    f"the node budget: {exhausted}")
        return []
    return [Violation("hierarchy", case.label(), detail)
            for detail in check_hierarchy_implications(verdicts)]


def oracle_termination(case: FuzzCase, ctx: OracleContext) -> List[Violation]:
    """Membership promises hold on real runs (Theorems 2/3/5/6/7)."""
    verdicts = ctx.probes(case)
    guaranteed = [name for name in ALL_SEQUENCE_CLASSES
                  if verdicts.get(name)]
    if guaranteed:
        result = ctx.run_chase(case)
        if result.status not in _FINITE:
            return [Violation(
                "termination", case.label(),
                f"set is in {'/'.join(guaranteed)} but the chase hit "
                f"{result.status.value} after {result.length} steps")]
        return []
    if verdicts["stratified"]:
        result = ctx.run_chase(case, strategy_key="stratified")
        if result.status not in _FINITE:
            return [Violation(
                "termination", case.label(),
                "stratified set did not terminate under Theorem 2's "
                f"stratum order ({result.status.value} after "
                f"{result.length} steps)")]
    return []


def oracle_engine_parity(case: FuzzCase,
                         ctx: OracleContext) -> List[Violation]:
    """The indexed chase agrees with the naive chase, and the join-plan
    executor with the reference search (:func:`search_mismatches`) on
    the case's input instance and on its chased instance.

    A run cut short by its budget has no result to compare, so either
    run being cut short skips the chase comparison.  When the indexed
    run is, only the input instance is searched and the naive chase is
    not started: on a divergent case it searches the whole growing
    instance again at every step (minutes, not milliseconds).
    """
    out: List[Violation] = []
    indexed = ctx.run_chase(case)
    searched = [("input", case.instance)]
    naive = None
    if indexed.status in _FINITE:
        searched.append(("chased", indexed.instance))
        naive = ctx.run_chase(case, naive=True)
    if naive is not None and naive.status in _FINITE:
        detail = compare_finite_runs(indexed, naive,
                                     "indexed vs naive chase")
        if detail:
            out.append(Violation("engine_parity", case.label(), detail))
    else:
        ctx.skip(case, "engine_parity", "a run exceeded its budget")
    for what, instance in searched:
        out.extend(Violation("engine_parity", case.label(),
                             f"{what} instance, {detail}")
                   for detail in search_mismatches(case, instance))
    return out


def oracle_order_cores(case: FuzzCase, ctx: OracleContext) -> List[Violation]:
    """Chase results are unique up to core across chase orders.

    Only checked when some class bounds every sequence -- otherwise
    different orders may legitimately diverge (Example 4).
    """
    verdicts = ctx.probes(case)
    if not any(verdicts.get(name) for name in ALL_SEQUENCE_CLASSES):
        return []
    runs = [ctx.run_chase(case),
            ctx.run_chase(case, strategy_key=str(case.index % 7))]
    if not both_finite(*runs):
        ctx.skip(case, "order_cores", "a run exceeded its budget")
        return []
    detail = compare_finite_runs(runs[0], runs[1], "round_robin vs random")
    if detail:
        return [Violation("order_cores", case.label(), detail)]
    if runs[0].status is not ChaseStatus.TERMINATED:
        return []
    cores = [core(run.instance) for run in runs]
    out: List[Violation] = []
    for left, right in itertools.combinations(cores, 2):
        if len(left) != len(right) \
                or not null_renaming_equivalent(left, right):
            out.append(Violation(
                "order_cores", case.label(),
                f"cores differ across chase orders ({len(left)} vs "
                f"{len(right)} facts)"))
    return out


def oracle_certain_answers(case: FuzzCase,
                           ctx: OracleContext) -> List[Violation]:
    """``certain_answers`` is invariant under optimize= and equals the
    reference evaluation on the terminated chase (the answer set
    depends only on the knowledge base)."""
    base = ctx.run_chase(case)
    if base.status is not ChaseStatus.TERMINATED:
        ctx.skip(case, "certain_answers",
                 f"exact chase {base.status.value}")
        return []
    steps = ctx.max_steps
    try:
        plain = certain_answers(case.instance, case.sigma, case.query,
                                max_steps=steps)
        variants = {
            "optimize=True": certain_answers(
                case.instance, case.sigma, case.query, max_steps=steps,
                optimize=True),
            "the reference evaluation": reference_answers(case.query,
                                                          base.instance),
        }
    except ReproError as exc:
        ctx.skip(case, "certain_answers", f"evaluation refused: {exc}")
        return []
    out: List[Violation] = []
    for label, answers in variants.items():
        if answers != plain:
            out.append(Violation(
                "certain_answers", case.label(),
                f"answers change under {label}: {sorted(plain)!r} vs "
                f"{sorted(answers)!r}"))
    return out


def _encoded(result) -> tuple:
    """A job result's status and encoded facts and answers: the texts,
    compared byte for byte."""
    return result.status, result.facts_json, result.answers_json


def oracle_service_parity(case: FuzzCase,
                          ctx: OracleContext) -> List[Violation]:
    """The service path replays in-process execution byte-for-byte.

    Checks (a) direct execution vs the in-process scheduler, (b) a
    warm cache hit vs the cold run, and -- on sampled cases -- (c) a
    real 2-worker fork()ed pool vs both, for the chase job and the
    query job of the case.  All comparisons are exact: within one
    process tree, equal fingerprints must produce identical encoded
    results (the service layer's cache-soundness contract).
    """
    jobs = [ChaseJob(name=case.label(), sigma=case.sigma,
                     instance=case.instance, strategy="round_robin",
                     max_steps=ctx.max_steps, max_k=2),
            ChaseJob(name=case.label() + "_q", sigma=case.sigma,
                     instance=case.instance, query=case.query,
                     strategy="round_robin", max_steps=ctx.max_steps,
                     optimize=False, max_k=2)]
    out: List[Violation] = []
    scheduler = ctx.inproc_scheduler()
    for job in jobs:
        direct = execute_any(job)
        cold = scheduler.run_one(job)
        warm = scheduler.run_one(job)
        if _encoded(cold) != _encoded(direct):
            out.append(Violation(
                "service_parity", case.label(),
                f"{job.kind} job: scheduler result diverges from "
                f"in-process execution ({cold.status} vs {direct.status})"))
            continue
        if direct.cacheable:
            if not warm.cached:
                out.append(Violation(
                    "service_parity", case.label(),
                    f"{job.kind} job: deterministic outcome "
                    f"{direct.status} was not served from cache"))
            elif _encoded(warm) != _encoded(cold):
                out.append(Violation(
                    "service_parity", case.label(),
                    f"{job.kind} job: warm cache hit diverges from the "
                    "cold run"))
        if ctx.pool_case(case):
            pooled = ctx.pool_scheduler().run_one(job)
            if _encoded(pooled) != _encoded(direct):
                out.append(Violation(
                    "service_parity", case.label(),
                    f"{job.kind} job: 2-worker pool result diverges "
                    f"from in-process execution ({pooled.status} vs "
                    f"{direct.status})"))
    return out


#: Oracle registry, in execution order.  The runner iterates this (or
#: a caller-supplied subset/extension) per case.
ORACLES: "OrderedDict[str, Callable]" = OrderedDict([
    ("hierarchy", oracle_hierarchy),
    ("termination", oracle_termination),
    ("engine_parity", oracle_engine_parity),
    ("order_cores", oracle_order_cores),
    ("certain_answers", oracle_certain_answers),
    ("service_parity", oracle_service_parity),
])
