"""Conjunctive queries, compiled evaluation and semantic query
optimization."""

from repro.cq.containment import contained_in, equivalent
from repro.cq.evaluate import compile_query, CompiledQuery, compiled_answers
from repro.cq.optimize import (minimize_query, optimize,
                               OptimizationResult, universal_plan)
from repro.cq.query import ConjunctiveQuery, unfreeze

__all__ = [
    "compile_query", "CompiledQuery", "compiled_answers",
    "contained_in", "equivalent", "minimize_query", "optimize",
    "OptimizationResult", "universal_plan",
    "ConjunctiveQuery", "unfreeze",
]
