"""Batch job-spec generators for the service layer's bench and tests.

Produces plain JSON-able job spec dicts (the input format of
``repro batch`` and :meth:`repro.service.jobs.ChaseJob.from_dict`)
drawn from the established workload families -- deliberately *specs*,
not :class:`ChaseJob` objects, so this module stays below the service
layer (workloads never import upward).

A mixed batch interleaves four families:

* ``chain``  -- full-TGD copy chains over path instances (weakly
  acyclic, terminating, cheap);
* ``safe``   -- Example 8/9's safe set over the ternary R/S schema
  (Theorem 5, terminating, null-creating);
* ``t3``     -- Figure 2's ``T[3]`` set over marked paths (Theorem 7);
* ``divergent`` -- the Introduction's ``S(x) -> E(x,y), S(y)``
  (terminates for no strategy; only budgets bound it).

Determinism guarantees
----------------------
Every spec is a pure function of ``(seed, index)``:

* per-spec randomness comes from a private ``random.Random`` seeded
  with a version-tagged ``"{seed}:{index}"`` string -- string seeds
  hash through SHA-512 inside :class:`random.Random`, so the stream is
  identical across processes, platforms and ``PYTHONHASHSEED`` values,
  and inserting or dropping a job never shifts its neighbours' specs;
* instances and constraints render through the canonical sorted
  renderers of :mod:`repro.lang.parser`, so equal content produces
  byte-equal spec text and hence equal
  :meth:`~repro.service.jobs.ChaseJob.fingerprint` values across
  processes (the regression test generates batches in two separate
  interpreters with different hash seeds and compares fingerprints);
* *executing* a spec is deterministic too: every job runs with a
  private :class:`~repro.lang.terms.NullFactory` (labels restart at
  1), and the worker pool **forks** its workers, so null labels agree
  between a 1-worker and an N-worker run of the same batch within one
  process tree.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.lang.instance import Instance
from repro.lang.parser import render_constraints
from repro.lang.parser import render_instance as _render_parser_instance
from repro.workloads.families import (chain_instance, example9_instance,
                                      full_tgd_chain,
                                      special_nodes_instance)
from repro.workloads.paper import example8_beta, figure2

#: The cycling order of families in a mixed batch.
FAMILIES = ("chain", "safe", "t3", "divergent")


def render_instance(instance: Instance) -> str:
    """The instance in the parser's text format (one fact per line).

    Delegates to :func:`repro.lang.parser.render_instance` -- the
    canonical sorted renderer whose output re-parses to an equal
    instance (and which also handles quoted constants and labeled
    nulls, beyond what the workload families produce)."""
    return _render_parser_instance(instance)


def spec_rng(seed: int, index: int) -> random.Random:
    """The private RNG of spec ``index`` in the ``seed`` batch.

    String-seeded for cross-process stability; per-index so each spec
    is a pure function of ``(seed, index)`` regardless of how many
    other specs the batch contains (see the module docs)."""
    return random.Random(f"repro-workloads:v1:{seed}:{index}")


def job_spec(family: str, size: int, name: Optional[str] = None,
             max_steps: int = 10_000, **overrides) -> dict:
    """One job spec of the given family at the given instance size."""
    if family == "chain":
        sigma = full_tgd_chain(3)
        instance = chain_instance(size, relation="R0")
    elif family == "safe":
        sigma = example8_beta()
        instance = example9_instance(size)
    elif family == "t3":
        # Every node marked: each marked node with a predecessor fires
        # Figure 2 once (spacing=2 would leave the set satisfied).
        sigma = figure2()
        instance = special_nodes_instance(size, spacing=1)
    elif family == "divergent":
        from repro.workloads.paper import intro_alpha2
        sigma = intro_alpha2()
        instance = special_nodes_instance(max(2, size // 2))
        # Divergent specs ship a modest default step budget; the
        # scheduler would cap an unbounded one anyway.
        max_steps = min(max_steps, 2000)
    else:
        raise ValueError(f"unknown family {family!r} "
                         f"(expected one of {FAMILIES})")
    spec = {
        "name": name or f"{family}_{size}",
        "constraints": render_constraints(sigma),
        "instance": render_instance(instance),
        "strategy": "auto",
        "max_steps": max_steps,
    }
    spec.update(overrides)
    return spec


def mixed_batch_specs(n_jobs: int, seed: int = 0,
                      min_size: int = 3, max_size: int = 8) -> List[dict]:
    """``n_jobs`` specs cycling through the families with seeded sizes.

    Sizes repeat across the batch (drawn per index from a small seeded
    range, see :func:`spec_rng`), so a generated batch contains genuine
    duplicates -- exercising the scheduler's intra-batch dedup exactly
    like real traffic with repeated requests would.
    """
    specs = []
    for index in range(n_jobs):
        family = FAMILIES[index % len(FAMILIES)]
        size = spec_rng(seed, index).randint(min_size, max_size)
        specs.append(job_spec(family, size,
                              name=f"{family}_{size}_{index}"))
    return specs


# ----------------------------------------------------------------------
# Certain-answer query specs (the input format of ``repro query`` and
# :meth:`repro.service.jobs.ChaseJob.from_dict`)
# ----------------------------------------------------------------------
#: The cycling order of query families in a mixed query batch:
#: ``chain_join``  -- join of two copied relations over a chain
#:                    (terminating, exact path);
#: ``safe_join``   -- Example 8/9's safe set with a join through the
#:                    created nulls (terminating, null filtering);
#: ``guarded``     -- the Introduction's divergent guarded set
#:                    (depth-bounded fallback, truncated answers).
QUERY_FAMILIES = ("chain_join", "safe_join", "guarded")


def query_spec(family: str, size: int, name: Optional[str] = None,
               max_steps: int = 10_000, **overrides) -> dict:
    """One certain-answer query spec of the given family and size."""
    if family == "chain_join":
        sigma = full_tgd_chain(3)
        instance = chain_instance(size, relation="R0")
        query = "q(x, z) <- R3(x, y), R3(y, z)"
    elif family == "safe_join":
        sigma = example8_beta()
        instance = example9_instance(size)
        query = "q(x1, x3) <- R(x1, x2, x3), S(x3)"
    elif family == "guarded":
        from repro.workloads.paper import intro_alpha2
        sigma = intro_alpha2()
        instance = special_nodes_instance(max(2, size // 2))
        query = "q(u) <- S(u), E(u, v)"
        max_steps = min(max_steps, 1000)
    else:
        raise ValueError(f"unknown query family {family!r} "
                         f"(expected one of {QUERY_FAMILIES})")
    spec = {
        "kind": "query",
        "name": name or f"{family}_{size}",
        "constraints": render_constraints(sigma),
        "instance": render_instance(instance),
        "query": query,
        "strategy": "auto",
        "max_steps": max_steps,
    }
    spec.update(overrides)
    return spec


def query_batch_specs(n_jobs: int, seed: int = 0,
                      min_size: int = 3, max_size: int = 8) -> List[dict]:
    """``n_jobs`` query specs cycling the families with per-index
    seeded sizes (duplicates included, like
    :func:`mixed_batch_specs`)."""
    specs = []
    for index in range(n_jobs):
        family = QUERY_FAMILIES[index % len(QUERY_FAMILIES)]
        size = spec_rng(seed, index).randint(min_size, max_size)
        specs.append(query_spec(family, size,
                                name=f"{family}_{size}_{index}"))
    return specs
