"""repro -- a reproduction of *On Chase Termination Beyond
Stratification* (Meier, Schmidt, Lausen; VLDB 2009 / arXiv:0906.4228).

The library provides:

* a relational substrate (:mod:`repro.lang`) with TGDs/EGDs, a text
  format and instances that store their facts as columns of interned
  term ids (:mod:`repro.storage` interns the terms);
* a chase engine (:mod:`repro.chase`) with standard and oblivious
  runners and pluggable application strategies;
* every data-independent termination condition of the paper's Figure 1
  (:mod:`repro.termination`): weak acyclicity, stratification, the
  corrected c-stratification, safety, inductive restriction and the
  T-hierarchy with the ``check`` algorithm;
* data-dependent termination (:mod:`repro.datadep`): irrelevance
  analysis and the monitor-graph/k-cyclicity guard;
* conjunctive queries and chase-based semantic query optimization
  (:mod:`repro.cq`);
* the Section 5 knowledge-base application (:mod:`repro.kb`):
  weakly/restrictedly guarded TGDs and certain-answer computation;
* a batch chase service (:mod:`repro.service`): declarative jobs with
  content fingerprints, an LRU result/report cache, a
  persistent-worker pool and termination-aware scheduling
  (``repro batch`` / ``repro serve``).

Quickstart::

    from repro import parse_constraints, parse_instance, chase, analyze

    sigma = parse_constraints("S(x) -> E(x,y), S(y)")
    print(analyze(sigma).render())            # no condition applies ...
    result = chase(parse_instance("S(a)"), sigma, max_steps=100)
    print(result.status)                      # ... and indeed it diverges
"""

from repro.chase import (chase, ChaseResult, ChaseStatus, core,
                         oblivious_chase, OrderedStrategy, RandomStrategy,
                         RoundRobinStrategy, StratifiedStrategy)
from repro.cq import (compiled_answers, ConjunctiveQuery, contained_in,
                      equivalent, minimize_query, optimize, universal_plan)
from repro.datadep import (monitored_chase, MonitorGraph, pay_as_you_go,
                           relevant_constraints, terminates_statically)
from repro.kb import (certain_answers, is_restrictedly_guarded,
                      is_weakly_guarded, optimize_query)
from repro.lang import (Atom, Constant, EGD, Instance, Null, parse_constraint,
                        parse_constraints, parse_instance, parse_query,
                        Position, Schema, TGD, Variable)
from repro.service import (BatchScheduler, ChaseJob, JobResult, QueryJob,
                           ServiceCache, WorkerPool)
from repro.storage import TermTable
from repro.termination import (analyze, chase_strata, check,
                               is_c_stratified, is_inductively_restricted,
                               is_safe, is_stratified, is_weakly_acyclic,
                               stratified_strategy, t_level,
                               TerminationReport)

__version__ = "1.0.0"

__all__ = [
    "chase", "ChaseResult", "ChaseStatus", "core", "oblivious_chase",
    "OrderedStrategy", "RandomStrategy", "RoundRobinStrategy",
    "StratifiedStrategy", "compiled_answers", "ConjunctiveQuery",
    "contained_in", "equivalent", "minimize_query",
    "optimize", "universal_plan", "monitored_chase", "MonitorGraph",
    "pay_as_you_go", "relevant_constraints", "terminates_statically",
    "certain_answers", "is_restrictedly_guarded", "is_weakly_guarded",
    "optimize_query",
    "Atom", "Constant", "EGD", "Instance", "Null", "parse_constraint",
    "parse_constraints", "parse_instance", "parse_query", "Position",
    "Schema", "TGD", "Variable", "analyze", "chase_strata", "check",
    "is_c_stratified", "is_inductively_restricted", "is_safe",
    "is_stratified", "is_weakly_acyclic", "stratified_strategy", "t_level",
    "TerminationReport", "TermTable", "BatchScheduler",
    "ChaseJob", "JobResult", "QueryJob", "ServiceCache", "WorkerPool",
    "__version__",
]
