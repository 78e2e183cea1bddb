"""The fuzz corpus runner: generate, check, shrink, persist.

:func:`run_corpus` drives a seeded corpus through every metamorphic
oracle.  Counts, never clocks, bound the work: each chase inside an
oracle stops after ``max_steps`` steps, and each precedence search
behind a class-membership probe after the precedence oracle's node
budget (:data:`~repro.termination.precedence.DEFAULT_NODE_BUDGET`),
answering conservatively when it runs out.  Every oracle runs on every
case.

Every violation is shrunk (:mod:`repro.fuzz.shrink`) by re-running the
*same single oracle* on reduced cases in a fresh
:class:`~repro.fuzz.oracles.OracleContext`, then written to
``repro_dir`` as a deterministic JSON job spec replayable with
``repro batch`` (the spec is a regular chase/query job plus a ``fuzz``
metadata key, which job parsing ignores).

The report -- violations, skips and oracle calls -- is a pure function
of ``(seed, n_cases, config)``: the same in every process, under every
string-hash seed and at every machine speed.  Only ``elapsed`` varies.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.fuzz.generate import (FuzzCase, FuzzConfig, GENERATOR_VERSION,
                                 generate_case)
from repro.fuzz.oracles import ORACLES, OracleContext, Violation
from repro.fuzz.shrink import ShrinkResult, shrink_case


@dataclass
class FuzzFailure:
    """One confirmed oracle violation, with its minimized repro."""

    violation: Violation
    shrunk: FuzzCase
    shrink: Optional[ShrinkResult] = None
    repro_path: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.violation.oracle,
            "case": self.violation.case_label,
            "detail": self.violation.detail,
            "repro": self.repro_path,
            "constraints": self.shrunk.constraints_text(),
            "instance": self.shrunk.instance_text(),
            "query": self.shrunk.query_text(),
        }


@dataclass
class FuzzReport:
    """The outcome of one corpus run."""

    seed: int
    n_cases: int
    failures: List[FuzzFailure] = field(default_factory=list)
    skips: List[str] = field(default_factory=list)
    oracle_calls: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "cases": self.n_cases,
            "oracle_calls": self.oracle_calls,
            "failures": [f.to_dict() for f in self.failures],
            "skips": self.skips,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
        }

    def render(self) -> str:
        lines = [f"fuzz seed={self.seed}: {self.n_cases} cases, "
                 f"{self.oracle_calls} oracle calls, "
                 f"{len(self.failures)} violations, "
                 f"{len(self.skips)} skips, {self.elapsed:.1f}s"]
        for failure in self.failures:
            lines.append("  " + failure.violation.render())
            if failure.repro_path:
                lines.append(f"    repro: {failure.repro_path}")
        return "\n".join(lines)


def write_repro_spec(case: FuzzCase, violation: Violation,
                     directory, max_steps: int = 400) -> Path:
    """Persist a minimized case as a replayable ``repro batch`` spec.

    Query-flavoured violations get a query job spec, everything else a
    chase job spec; both carry the failing oracle and generator
    coordinates under the ``fuzz`` key, which the job parser ignores.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if violation.oracle == "certain_answers":
        spec = case.to_query_spec(max_steps=max_steps)
    else:
        spec = case.to_chase_spec(max_steps=max_steps)
    spec["fuzz"] = {
        "generator_version": GENERATOR_VERSION,
        "seed": case.seed,
        "case": case.index,
        "oracle": violation.oracle,
        "detail": violation.detail,
    }
    path = directory / f"{case.label()}_{violation.oracle}.json"
    path.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
    return path


def _shrink_predicate(oracle: Callable,
                      max_steps: int) -> Callable[[FuzzCase], bool]:
    """Does the *same* oracle still flag the candidate case?

    Each probe runs in a fresh single-case context with deep probes
    always on and the worker pool off (pool-specific divergence does
    not shrink -- the original case is then kept as the repro).
    """
    def still_fails(candidate: FuzzCase) -> bool:
        with OracleContext(max_steps=max_steps, deep_hierarchy_every=1,
                           pool_every=0) as local:
            local.start_case(candidate)
            return bool(oracle(candidate, local))
    return still_fails


def run_corpus(seed: int, n_cases: int,
               config: Optional[FuzzConfig] = None,
               max_steps: int = 250,
               deep_hierarchy_every: int = 4,
               pool_every: int = 25,
               repro_dir=None,
               oracles: Optional[Dict[str, Callable]] = None,
               shrink: bool = True,
               shrink_evaluations: int = 120,
               on_case: Optional[Callable[[FuzzCase], None]] = None
               ) -> FuzzReport:
    """Generate and check the ``seed`` corpus; see the module docs.

    ``oracles`` substitutes the oracle registry (tests inject single
    oracles or deliberately broken ones); ``on_case`` observes each
    generated case before checking (progress reporting).
    """
    checks = list((oracles if oracles is not None else ORACLES).values())
    report = FuzzReport(seed=seed, n_cases=n_cases)
    started = time.perf_counter()
    with OracleContext(max_steps=max_steps,
                       deep_hierarchy_every=deep_hierarchy_every,
                       pool_every=pool_every) as ctx:
        for index in range(n_cases):
            case = generate_case(seed, index, config)
            if on_case is not None:
                on_case(case)
            ctx.start_case(case)
            for oracle in checks:
                report.oracle_calls += 1
                for violation in oracle(case, ctx):
                    failure = FuzzFailure(violation=violation, shrunk=case)
                    if shrink:
                        result = shrink_case(
                            case, _shrink_predicate(oracle, max_steps),
                            max_evaluations=shrink_evaluations)
                        failure.shrink = result
                        failure.shrunk = result.case
                    if repro_dir is not None:
                        failure.repro_path = str(write_repro_spec(
                            failure.shrunk, violation, repro_dir,
                            max_steps=max_steps))
                    report.failures.append(failure)
        report.skips = list(ctx.skips)
    report.elapsed = time.perf_counter() - started
    return report
