"""One-stop classification of a constraint set across every
termination condition of Figure 1, plus a recommended chase policy.

Reports are lazy.  :func:`analyze` answers the planner's one question
-- which chase order, if any, is guaranteed to terminate? -- by
checking the conditions cheapest first and stopping at the first that
holds.  Weak acyclicity, safety, c-stratification and inductive
restriction (= T[2]) each bound every chase sequence, so the default
order is kept.  Next comes stratification, whose stratum order
terminates (Theorem 2).  Only a set that is neither runs the T[3..k]
probe, a precedence search for every chain of k constraints (Section
3.7): a stratified set already has a terminating order, and the
probe's answer could not make its plan any safer.  This is Section
3.7's argument for Figure 8's safety fast path applied to the whole
hierarchy: a weakly acyclic set is settled in milliseconds, without a
single precedence search.  Every other verdict is computed on its
first read and kept, so :meth:`~TerminationReport.render` and
:meth:`~TerminationReport.as_row` still report all of them; so are
Theorem 2's stratum order, which planning reads for every set that is
only stratified, and the report's fingerprint.

Reports are value objects: two reports over equal constraint sets
(same constraints, same probe depth) compare and hash equal, and every
report carries a stable content :meth:`~TerminationReport.fingerprint`
derived from the canonical rendering of its constraint set.  On top of
that, :func:`analyze` memoizes its reports per (constraint set,
``max_k``, oracle) -- the Figure 1 checks are pure, so repeated
analyses of the same set (the common case in the batch service, where
many jobs share one schema's constraints) cost one dictionary lookup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple

from repro.chase.strategies import StratifiedStrategy
from repro.lang.constraints import Constraint
from repro.termination.cstratification import is_c_stratified
from repro.termination.hierarchy import t_level
from repro.termination.precedence import ORACLE, PrecedenceOracle
from repro.termination.restriction import (is_inductively_restricted,
                                           is_safely_restricted)
from repro.termination.safety import is_safe
from repro.termination.stratification import chase_strata, is_stratified
from repro.termination.weak_acyclicity import is_weakly_acyclic

#: column order used by renderers and the Figure 1 benchmark
CONDITIONS = ("weakly_acyclic", "safe", "c_stratified", "stratified",
              "safely_restricted", "inductively_restricted")


def constraint_set_fingerprint(sigma: Iterable[Constraint]) -> str:
    """A stable hex digest of a constraint set's *content*.

    The digest is computed over the sorted canonical renderings of the
    constraints (see :func:`repro.lang.parser.render_constraints`), so
    it is independent of constraint order and of labels' presence --
    two textually different files describing the same set of TGDs/EGDs
    fingerprint identically.  Used as the cache key for memoized
    termination reports (here and in :mod:`repro.service.cache`).
    """
    from repro.lang.parser import _render_constraint_body
    lines = sorted(_render_constraint_body(c) for c in sigma)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


class _Verdict:
    """One value of a :class:`TerminationReport` -- a Figure 1 verdict,
    the stratum order or the fingerprint -- decided by the decorated
    check on first read and kept on the report.

    A plain descriptor, not ``functools.cached_property``: on Python
    3.10 and 3.11 each cached property holds one lock shared by every
    instance, so two threads analyzing different sets would wait on
    each other.  Two threads reading the same undecided verdict may
    both decide it; the checks are pure, so both keep the same value.
    """

    def __init__(self, check: Callable[["TerminationReport"], object]
                 ) -> None:
        self.check = check
        self.name = check.__name__
        self.__doc__ = check.__doc__

    def __get__(self, report, owner=None):
        if report is None:
            return self
        verdicts = report._verdicts
        if self.name not in verdicts:
            verdicts[self.name] = self.check(report)
        return verdicts[self.name]


@dataclass(frozen=True)
class TerminationReport:
    """Membership of one constraint set in each Figure 1 class.

    Each verdict is decided on its first read and kept (see the module
    docstring for what :func:`analyze` decides up front).  Frozen value
    object: equality and hashing range over the inputs that fix the
    verdicts -- the constraint tuple and the probe depth -- so reports
    can key caches directly (the batch service memoizes analyses this
    way).
    """

    sigma: Tuple[Constraint, ...]
    max_k_probed: int
    oracle: PrecedenceOracle = field(default=ORACLE, compare=False,
                                     repr=False)
    _verdicts: dict = field(default_factory=dict, init=False,
                            compare=False, repr=False)

    @_Verdict
    def weakly_acyclic(self) -> bool:
        """Weak acyclicity (Theorem 5's base class)."""
        return is_weakly_acyclic(self.sigma)

    @_Verdict
    def safe(self) -> bool:
        """Safety (Section 3.4)."""
        return is_safe(self.sigma)

    @_Verdict
    def stratified(self) -> bool:
        """Stratification (Definition 3; Theorems 1 and 2)."""
        return is_stratified(self.sigma, self.oracle)

    @_Verdict
    def c_stratified(self) -> bool:
        """C-stratification (Definition 5, Theorem 3)."""
        return is_c_stratified(self.sigma, self.oracle)

    @_Verdict
    def safely_restricted(self) -> bool:
        """Safe restriction (the intermediate class of [18])."""
        return is_safely_restricted(self.sigma, self.oracle)

    @_Verdict
    def inductively_restricted(self) -> bool:
        """Inductive restriction (Definition 13, Theorem 6)."""
        return is_inductively_restricted(self.sigma, self.oracle)

    @_Verdict
    def t_hierarchy_level(self) -> Optional[int]:
        """The least ``k <= max_k_probed`` with ``sigma`` in T[k], or
        None (Definition 16, Theorem 7)."""
        return t_level(self.sigma, self.max_k_probed, self.oracle)

    @_Verdict
    def strata(self) -> Tuple[Tuple[Constraint, ...], ...]:
        """Theorem 2's stratum order: the SCCs of the chase graph in
        topological order."""
        return tuple(map(tuple, chase_strata(self.sigma, self.oracle)))

    @_Verdict
    def _fingerprint(self) -> str:
        return (f"{constraint_set_fingerprint(self.sigma)}"
                f":k{self.max_k_probed}")

    def fingerprint(self) -> str:
        """Content fingerprint of the analyzed constraint set plus the
        probe depth (deeper probes can refine the T-hierarchy verdict,
        so reports at different ``max_k`` must not collide).  Computed
        once per report."""
        return self._fingerprint

    @property
    def _certified(self) -> bool:
        """Does one of the four classes checked before stratification
        (WA, safe, c-stratified, IR = T[2]) bound every sequence?"""
        return (self.weakly_acyclic or self.safe or self.c_stratified
                or self.inductively_restricted)

    @property
    def guarantees_all_sequences(self) -> bool:
        """Does some checked condition bound *every* chase sequence?

        Stratification alone does not (Example 4); every other class in
        Figure 1 does (Theorems 3, 5, 6, 7).
        """
        return self._certified or self.t_hierarchy_level is not None

    @property
    def guarantees_some_sequence(self) -> bool:
        """Does some condition guarantee at least one terminating
        sequence (Theorem 1)?  Stratification is checked before the
        T[3..k] probe, so a stratified set never runs it here."""
        return (self._certified or self.stratified
                or self.t_hierarchy_level is not None)

    def recommended_strategy(self):
        """A chase strategy that is guaranteed to terminate, if any.

        Theorem 2's stratum order for a stratified set that none of
        WA, safety, c-stratification and IR certifies, whatever its
        T[k] level: a fresh strategy over the report's :attr:`strata`
        (a strategy keeps its place in the order, so none is shared).
        Otherwise None, the default round-robin: any order works for a
        certified set, and a set that is not stratified terminates
        under every order if it is in some T[k] (Theorem 7) and under
        no known order if not.  Never runs the T[3..k] probe.
        """
        if self._certified or not self.stratified:
            return None
        return StratifiedStrategy(self.strata)

    def as_row(self) -> dict:
        """The per-condition verdicts as a flat dict (benchmark tables)."""
        row = {name: getattr(self, name) for name in CONDITIONS}
        row["t_level"] = self.t_hierarchy_level
        return row

    def render(self) -> str:
        """A multi-line textual report of every termination condition
        (the Figure 1 hierarchy, one verdict per line)."""
        lines = ["termination analysis "
                 f"({len(list(self.sigma))} constraints):"]
        for name in CONDITIONS:
            lines.append(f"  {name:<24}: {getattr(self, name)}")
        level = (f"T[{self.t_hierarchy_level}]"
                 if self.t_hierarchy_level is not None
                 else f"not in T[2..{self.max_k_probed}]")
        lines.append(f"  {'t_hierarchy':<24}: {level}")
        lines.append(f"  every sequence bounded   : "
                     f"{self.guarantees_all_sequences}")
        lines.append(f"  some sequence terminates : "
                     f"{self.guarantees_some_sequence}")
        return "\n".join(lines)


def analyze(sigma: Iterable[Constraint], max_k: int = 3,
            oracle: PrecedenceOracle = ORACLE) -> TerminationReport:
    """Classify ``sigma`` against the conditions of Figure 1.

    Decides :attr:`~TerminationReport.guarantees_some_sequence` before
    returning, cheapest condition first -- weak acyclicity, safety,
    c-stratification, inductive restriction, stratification, then the
    T[3..k] probe -- and with it what planning reads: whether one of
    the first four classes bounds every sequence, else whether the set
    is stratified (Theorem 2's stratum order terminates), else whether
    the probe bounds every sequence.  Every verdict it did not need
    waits for its first read.  ``max_k`` bounds the T-hierarchy probe
    (each level costs an |Sigma|^k sweep of chain queries).

    Reports are memoized per (constraint tuple, ``max_k``, oracle):
    re-analyzing a constraint set already seen is O(1), and verdicts
    decided on one read stay decided for every later caller.  Use
    :func:`clear_analyze_cache` to drop the memo (tests; long-lived
    processes analyzing unbounded numbers of distinct sets should size
    their own cache, see :mod:`repro.service.cache`).
    """
    return _analyze_cached(tuple(sigma), max_k, oracle)


@lru_cache(maxsize=256)
def _analyze_cached(sigma: Tuple[Constraint, ...], max_k: int,
                    oracle: PrecedenceOracle) -> TerminationReport:
    report = TerminationReport(sigma, max_k, oracle)
    # Decided here, so the work lands where the report is made (the
    # service's set-up), not in whichever caller reads it first.
    report.guarantees_some_sequence
    return report


# ----------------------------------------------------------------------
# Figure 1 as checkable data: the hierarchy's implications
# ----------------------------------------------------------------------
#: Every inclusion of Figure 1 (plus the T-hierarchy's internal
#: monotonicity), as (antecedent, consequent) pairs over membership
#: verdict names.  ``t2``/``t3`` are T-hierarchy levels; note
#: ``inductively_restricted <=> t2`` (Definition 16: T[2] equals
#: inductive restriction), hence the pair appears in both directions.
#: The adversarial fuzzer (:mod:`repro.fuzz.oracles`) checks these on
#: every generated constraint set.
HIERARCHY_IMPLICATIONS: Tuple[Tuple[str, str], ...] = (
    ("weakly_acyclic", "safe"),                     # Theorem 5 region
    ("weakly_acyclic", "c_stratified"),             # Section 3.3
    ("c_stratified", "stratified"),                 # Definitions 3/5
    ("safe", "safely_restricted"),                  # Theorem 6 region
    ("c_stratified", "safely_restricted"),          # Theorem 6 region
    ("safely_restricted", "inductively_restricted"),  # Section 3.5
    ("inductively_restricted", "t2"),               # Definition 16
    ("t2", "inductively_restricted"),               # Definition 16
    ("t2", "t3"),                                   # T[k] subseteq T[k+1]
)


def check_hierarchy_implications(verdicts: dict) -> List[str]:
    """Violated Figure 1 implications among the given verdicts.

    ``verdicts`` maps membership names (see
    :data:`HIERARCHY_IMPLICATIONS`) to booleans; pairs whose names are
    absent are skipped, so callers may probe any subset (the fuzzer
    samples the expensive ``safely_restricted``/``t2``/``t3`` probes).
    Returns human-readable descriptions of every violated implication
    -- an empty list on a hierarchy-consistent classification.
    """
    violated: List[str] = []
    for antecedent, consequent in HIERARCHY_IMPLICATIONS:
        if antecedent not in verdicts or consequent not in verdicts:
            continue
        if verdicts[antecedent] and not verdicts[consequent]:
            violated.append(f"{antecedent} holds but {consequent} "
                            "does not (Figure 1 inclusion broken)")
    return violated


def clear_analyze_cache() -> None:
    """Drop every memoized :func:`analyze` result."""
    _analyze_cached.cache_clear()


def analyze_cache_info():
    """The memo's ``functools.lru_cache`` statistics (hits/misses)."""
    return _analyze_cached.cache_info()
