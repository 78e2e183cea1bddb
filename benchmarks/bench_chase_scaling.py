"""Theorems 3, 5, 6, 7: polynomial data complexity of the chase.

For one representative constraint set per termination class, runs the
chase over growing instances and checks that the sequence length grows
polynomially in |dom(I)| (log-log slope bounded by a small constant).
The paper proves the bounds; the bench measures the actual curves.

Also measures the semi-naive trigger index against the naive
re-enumeration path (``chase(..., naive=True)``): the incremental
index turns the per-step trigger search from "all homomorphisms" into
"homomorphisms through the step's delta", which shows up as a
super-linear speedup at the largest sizes.

Since the storage-layer refactor it additionally measures the
``ColumnStore`` backend plus compiled join plans against the
reference path preserved from the incremental-index era
(:func:`repro.homomorphism.engine.reference_engine` on the ``set``
backend): on the cross-product workload family the columnar access
paths compose with the lazy trigger expansion into a >=2x end-to-end
speedup at the largest sizes.

Since the service-layer PR it also measures **batch throughput**: a
mixed batch of workload-family jobs through the
:mod:`repro.service` scheduler with 1 vs. N workers and a cold vs.
warm fingerprint cache (the warm pass must execute nothing).

Since the query-subsystem PR it additionally measures **certain-answer
query throughput**: compiled id-level CQ evaluation
(:mod:`repro.cq.evaluate`) against the pre-plan reference loop on a
join-heavy query family, and a mixed query-job batch through
the scheduler cold vs. warm (the warm pass must execute nothing).

Since the kernel-layer PR it additionally measures the
**column-at-a-time batch path**: compiled CQ evaluation with the
vectorized kernels enabled vs. pinned to the tuple path
(:func:`repro.homomorphism.engine.batch_disabled`), plus a
no-regression guard on the cross-product chase family with batch
routing live (the chase proper stays tuple-at-a-time by design --
see ``docs/PAPER_MAP.md`` -- so end-to-end chase times must not
move).

Set ``REPRO_BENCH_SIZES`` (comma-separated, e.g. ``4,8``) to shrink
the sweep -- used by the CI smoke job.  End-to-end time is gated by
``perfbench/``; these microbenchmarks locate the work.
"""

import math
import os
import time

import pytest

from repro.chase import chase
from repro.homomorphism.engine import (null_renaming_equivalent,
                                       reference_engine)
from repro.workloads.families import example9_instance, special_nodes_instance
from repro.workloads.paper import (example8_beta, example10, example13,
                                   example2_gamma, figure2)
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.parser import parse_constraints
from repro.lang.terms import Constant

SIZES = [int(s) for s in os.environ.get("REPRO_BENCH_SIZES",
                                        "4,8,16,32").split(",")
         if s.strip()] or [4, 8, 16, 32]


def _graph_instance(n):
    return special_nodes_instance(n, spacing=2)


CLASSES = [
    ("safe_example9", example8_beta, example9_instance, "Theorem 5"),
    ("c_stratified_gamma", example2_gamma,
     lambda n: Instance([Atom("E", (a, b)) for a, b in _cycle_pairs(n)]),
     "Theorem 3"),
    ("inductively_restricted_ex13", example13, _graph_instance, "Theorem 6"),
    ("t3_figure2", figure2, _graph_instance, "Theorem 7"),
]


def _cycle_pairs(n):
    from repro.lang.terms import Constant
    out = []
    for i in range(n):
        out.append((Constant(f"c{i}"), Constant(f"c{(i+1) % n}")))
        out.append((Constant(f"c{(i+1) % n}"), Constant(f"c{i}")))
    return out


def _measure_lengths(factory, instance_builder):
    lengths = []
    domains = []
    for size in SIZES:
        inst = instance_builder(size)
        result = chase(inst, factory(), max_steps=2_000_000)
        assert result.terminated, f"size {size} did not terminate"
        lengths.append(max(result.length, 1))
        domains.append(max(len(inst.domain()), 2))
    return domains, lengths


@pytest.mark.paper_artifact("Theorems 3/5/6/7")
@pytest.mark.parametrize("name,factory,instance_builder,theorem", CLASSES,
                         ids=[c[0] for c in CLASSES])
def test_polynomial_chase_length(benchmark, name, factory,
                                 instance_builder, theorem):
    domains, lengths = benchmark(_measure_lengths, factory,
                                 instance_builder)
    # log-log slope between the extreme points
    slope = (math.log(lengths[-1] / lengths[0])
             / math.log(domains[-1] / domains[0]))
    print(f"\n{theorem} [{name}]: dom sizes {domains} -> "
          f"chase lengths {lengths} (log-log slope {slope:.2f})")
    assert slope <= 3.5, (
        f"{name}: chase length grows superpolynomially-looking "
        f"(slope {slope:.2f})")


@pytest.mark.paper_artifact("Theorem 5")
def test_incremental_trigger_index_speedup(benchmark):
    """Semi-naive vs naive trigger discovery at the largest size.

    Both paths must agree on the chase result; the incremental path
    must not be slower (it is typically several times faster, with the
    gap widening super-linearly in the instance size).
    """
    factory, builder = example8_beta, example9_instance
    inst = builder(max(SIZES))

    def run_incremental():
        return chase(inst, factory(), max_steps=2_000_000)

    naive = chase(inst, factory(), max_steps=2_000_000, naive=True)
    result = benchmark(run_incremental)
    assert result.terminated and naive.terminated
    assert result.length == naive.length
    # Best-of-N wall clocks on both sides: robust against one-off
    # scheduler stalls that would make a single-shot ratio flaky.
    naive_seconds = _best_of(
        lambda: chase(inst, factory(), max_steps=2_000_000, naive=True))
    incremental_seconds = _best_of(run_incremental)
    speedup = naive_seconds / incremental_seconds
    print(f"\nincremental trigger index: {incremental_seconds:.4f}s vs "
          f"naive {naive_seconds:.4f}s at n={max(SIZES)} "
          f"(x{speedup:.1f} speedup)")
    if max(SIZES) >= 16:  # below that, timings are noise-dominated
        assert speedup >= 1.2, (
            f"incremental path not faster than naive (x{speedup:.2f})")


def _crossprod_family(n):
    """The storage-layer workload: a divergent TGD with a
    cross-product body over a wide side relation.

    ``E(x, y), S(u) -> E(y, z)`` makes every chase step expand one
    delta edge against the full (never-growing) ``S`` relation.  The
    PR 1 engine snapshots (copies) ``S`` per scan and re-walks it on
    every resumed enumeration; the columnar backend streams the scan
    lazily and the compiled plan abandons it outright once the
    frontier is known satisfied (``S`` binds no frontier variable) --
    O(1) per selection instead of O(|S|).
    """
    sigma = parse_constraints("d: E(x,y), S(u) -> E(y,z)")
    facts = [Atom("E", (Constant(f"c{i}"), Constant(f"c{i+1}")))
             for i in range(n)]
    facts += [Atom("S", (Constant(f"s{i}"),)) for i in range(8 * n)]
    return sigma, facts


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


@pytest.mark.paper_artifact("storage layer")
def test_column_store_backend_speedup(benchmark):
    """ColumnStore + compiled join plans vs the PR 1 incremental path.

    The baseline is the engine exactly as the incremental trigger
    index shipped it (``reference_engine()``) on the ``set`` backend;
    both sides run the same semi-naive chase and must agree on status
    and length (full result cross-validation, including
    ``null_renaming_equivalent``, lives in tests/storage/).
    """
    n = max(SIZES)
    sigma, facts = _crossprod_family(n)
    budget = 60 * n

    def run_column():
        return chase(Instance(facts, backend="column"), sigma,
                     max_steps=budget)

    def run_reference():
        with reference_engine():
            return chase(Instance(facts, backend="set"), sigma,
                         max_steps=budget)

    column = benchmark(run_column)
    reference = run_reference()
    assert column.status is reference.status
    assert column.length == reference.length == budget
    column_seconds = _best_of(run_column)
    reference_seconds = _best_of(run_reference)
    speedup = reference_seconds / column_seconds
    print(f"\ncolumn backend: {column_seconds:.4f}s vs PR 1 path "
          f"{reference_seconds:.4f}s at n={n} (x{speedup:.1f} speedup)")
    if n >= 32:  # below that, timings are noise-dominated
        assert speedup >= 2.0, (
            f"column backend not >=2x over the PR 1 path (x{speedup:.2f})")


@pytest.mark.paper_artifact("storage layer")
def test_backends_agree_on_terminating_workload(benchmark):
    """Cheap cross-check inside the bench: both backends chase the
    safe workload to homomorphically equivalent results."""
    factory, builder = example8_beta, example9_instance
    facts = list(builder(max(SIZES)))

    def run_both():
        set_result = chase(Instance(facts, backend="set"), factory(),
                           max_steps=2_000_000)
        column_result = chase(Instance(facts, backend="column"), factory(),
                              max_steps=2_000_000)
        return set_result, column_result

    set_result, column_result = benchmark(run_both)
    assert set_result.terminated and column_result.terminated
    assert null_renaming_equivalent(set_result.instance,
                                    column_result.instance)


@pytest.mark.paper_artifact("service layer")
def test_batch_throughput_workers_and_cache(benchmark):
    """Batch service: N mixed jobs through 1 vs. W workers, cold vs.
    warm fingerprint cache.

    Every configuration must produce results identical to sequential
    in-process execution (the per-job null factory makes them exactly
    comparable).  The warm-cache pass must execute nothing and beat
    the cold sequential pass outright; the 1-vs-W ratio is reported
    (process startup dominates at the smallest job sizes, so no
    speedup is asserted for it).
    """
    import os as _os

    from repro.service import BatchScheduler, ChaseJob, ServiceCache
    from repro.workloads.batch import mixed_batch_specs

    n_jobs = max(8, max(SIZES))
    workers = max(2, min(4, _os.cpu_count() or 2))
    specs = mixed_batch_specs(n_jobs, seed=42,
                              min_size=max(4, max(SIZES) // 4),
                              max_size=max(8, max(SIZES)))

    def jobs():
        return [ChaseJob.from_dict(spec) for spec in specs]

    def run_cold(n_workers):
        return BatchScheduler(workers=n_workers).run_batch(jobs())

    results = benchmark(lambda: run_cold(workers))
    reference = [(r.job, r.status, r.facts)
                 for r in BatchScheduler(
                     workers=1, force_inprocess=True).run_batch(jobs())]
    assert [(r.job, r.status, r.facts) for r in results] == reference

    serial_seconds = _best_of(lambda: run_cold(1))
    parallel_seconds = _best_of(lambda: run_cold(workers))

    warm_scheduler = BatchScheduler(workers=workers, cache=ServiceCache())
    warm_scheduler.run_batch(jobs())                     # prime the cache
    executed = warm_scheduler.pool.executed
    warm_seconds = _best_of(lambda: warm_scheduler.run_batch(jobs()))
    assert warm_scheduler.pool.executed == executed      # nothing re-ran
    assert all(r.cached for r in warm_scheduler.run_batch(jobs()))

    print(f"\nbatch of {n_jobs} jobs on {_os.cpu_count()} cpu(s): "
          f"1 worker {serial_seconds:.3f}s, "
          f"{workers} workers {parallel_seconds:.3f}s "
          f"(x{serial_seconds / parallel_seconds:.2f}), warm cache "
          f"{warm_seconds:.4f}s (x{serial_seconds / warm_seconds:.0f} "
          "over cold serial)")
    assert warm_seconds < serial_seconds, (
        "warm-cache batch not faster than cold sequential execution")


@pytest.mark.paper_artifact("Section 5 / query subsystem")
def test_compiled_query_evaluation_speedup(benchmark):
    """Compiled id-level CQ evaluation vs the reference loop on a
    join-heavy query family.

    A three-hop join with selective endpoint filters over a random
    digraph: the compiled plan orders the body by selectivity (the
    ``S`` filters first), joins over interned ids and deduplicates
    head images before decoding, where the reference loop enumerates
    every homomorphism in body order with a term-level dict per match.
    Answers must be identical; at the largest size the compiled path
    must be at least 2x faster (typically ~5x).
    """
    from repro.cq.evaluate import compiled_answers, reference_answers
    from repro.lang.parser import parse_query
    from repro.workloads.generators import random_graph_instance

    n = max(SIZES)
    facts = sorted(random_graph_instance(1, n_nodes=n,
                                         edge_probability=0.3).facts(),
                   key=str)
    column = Instance(facts, backend="column")
    reference_instance = Instance(facts, backend="set")
    query = parse_query(
        "q(a, d) <- E(a, b), E(b, c), E(c, d), S(a), S(d)")

    compiled = benchmark(lambda: compiled_answers(query, column))
    reference = reference_answers(query, reference_instance)
    assert compiled == reference

    compiled_seconds = _best_of(lambda: compiled_answers(query, column))
    reference_seconds = _best_of(
        lambda: reference_answers(query, reference_instance))
    speedup = reference_seconds / compiled_seconds
    print(f"\ncompiled CQ evaluation: {compiled_seconds:.4f}s vs "
          f"reference {reference_seconds:.4f}s at n={n} "
          f"({len(compiled)} answers, x{speedup:.1f} speedup)")
    if n >= 32:  # below that, timings are noise-dominated
        assert speedup >= 2.0, (
            f"compiled CQ evaluation not >=2x over the reference "
            f"loop (x{speedup:.2f})")


@pytest.mark.paper_artifact("kernel layer")
def test_batch_query_evaluation_speedup(benchmark):
    """Compiled CQ evaluation with the column-at-a-time kernels vs.
    the same compiled plan pinned to the tuple path.

    Both sides run identical plans on the ``column`` backend -- order
    selection, interning, projection push-down all shared -- so the
    ratio isolates the batch execution model (posting-list
    intersection + build/probe hash joins over column vectors against
    per-tuple backtracking).  Answers must be identical; at the
    largest size the batch path must be at least 2x faster
    (typically ~7x).
    """
    from repro.cq.evaluate import compiled_answers
    from repro.homomorphism.engine import batch_disabled
    from repro.lang.parser import parse_query
    from repro.workloads.generators import random_graph_instance

    n = max(SIZES)
    facts = sorted(random_graph_instance(1, n_nodes=n,
                                         edge_probability=0.3).facts(),
                   key=str)
    column = Instance(facts, backend="column")
    query = parse_query(
        "q(a, d) <- E(a, b), E(b, c), E(c, d), S(a), S(d)")

    batch = benchmark(lambda: compiled_answers(query, column))
    with batch_disabled():
        tuple_answers = compiled_answers(query, column)
    assert batch == tuple_answers

    batch_seconds = _best_of(lambda: compiled_answers(query, column))

    def run_tuple():
        with batch_disabled():
            return compiled_answers(query, column)

    tuple_seconds = _best_of(run_tuple)
    speedup = tuple_seconds / batch_seconds
    print(f"\nbatch CQ evaluation: {batch_seconds:.4f}s vs tuple path "
          f"{tuple_seconds:.4f}s at n={n} ({len(batch)} answers, "
          f"x{speedup:.1f} speedup)")
    if n >= 32:  # below that, timings are noise-dominated
        assert speedup >= 2.0, (
            f"batch CQ evaluation not >=2x over the tuple path "
            f"(x{speedup:.2f})")


@pytest.mark.paper_artifact("kernel layer")
def test_chase_unharmed_by_batch_routing(benchmark):
    """The cross-product chase family with batch routing live vs.
    pinned off.

    The chase's semi-naive searches carry stateful prune predicates
    and tiny pinned residuals, so the routing guards keep them on the
    tuple path -- end-to-end chase times must be unchanged (a guard
    against the batch path leaking into workloads it pessimizes).
    Results must agree exactly.
    """
    from repro.homomorphism.engine import batch_disabled

    n = max(SIZES)
    sigma, facts = _crossprod_family(n)
    budget = 60 * n

    def run_routed():
        return chase(Instance(facts, backend="column"), sigma,
                     max_steps=budget)

    def run_pinned():
        with batch_disabled():
            return chase(Instance(facts, backend="column"), sigma,
                         max_steps=budget)

    routed = benchmark(run_routed)
    pinned = run_pinned()
    assert routed.status is pinned.status
    assert routed.length == pinned.length == budget
    routed_seconds = _best_of(run_routed)
    pinned_seconds = _best_of(run_pinned)
    ratio = routed_seconds / pinned_seconds
    print(f"\nchase with batch routing: {routed_seconds:.4f}s vs "
          f"batch-disabled {pinned_seconds:.4f}s at n={n} "
          f"(ratio {ratio:.2f})")
    if n >= 32:  # below that, timings are noise-dominated
        assert ratio <= 1.25, (
            f"batch routing slowed the chase down (x{ratio:.2f} of the "
            f"tuple-pinned time)")


@pytest.mark.paper_artifact("Section 5 / query subsystem")
def test_query_service_throughput_and_cache(benchmark):
    """A mixed certain-answer batch through the scheduler, cold vs.
    warm fingerprint cache.

    Every result must match plain sequential in-process execution
    (answers are constants-only, hence byte-comparable across
    workers), and the warm pass must execute nothing and beat the
    cold pass outright.
    """
    from repro.service import BatchScheduler, job_from_dict, ServiceCache
    from repro.workloads.batch import query_batch_specs

    n_jobs = max(8, max(SIZES) // 2)
    specs = query_batch_specs(n_jobs, seed=42,
                              min_size=max(4, max(SIZES) // 4),
                              max_size=max(8, max(SIZES) // 2))

    def jobs():
        return [job_from_dict(spec) for spec in specs]

    def run_cold():
        with BatchScheduler(workers=1,
                            force_inprocess=True) as scheduler:
            return scheduler.run_batch(jobs())

    results = benchmark(run_cold)
    assert all(result.ok for result in results)

    cold_seconds = _best_of(run_cold)
    warm_scheduler = BatchScheduler(workers=1, cache=ServiceCache(),
                                    force_inprocess=True)
    reference = warm_scheduler.run_batch(jobs())        # prime the cache
    assert ([(r.job, r.status, r.answers) for r in results]
            == [(r.job, r.status, r.answers) for r in reference])
    executed = warm_scheduler.pool.executed
    warm_seconds = _best_of(lambda: warm_scheduler.run_batch(jobs()))
    assert warm_scheduler.pool.executed == executed     # nothing re-ran
    assert all(r.cached for r in warm_scheduler.run_batch(jobs()))
    warm_scheduler.close()

    print(f"\nquery batch of {n_jobs} jobs: cold {cold_seconds:.3f}s, "
          f"warm cache {warm_seconds:.4f}s "
          f"(x{cold_seconds / warm_seconds:.0f})")
    assert warm_seconds < cold_seconds, (
        "warm-cache query batch not faster than cold execution")


@pytest.mark.paper_artifact("Introduction")
def test_divergent_set_for_contrast(benchmark):
    """The divergent intro set burns its entire budget at every size --
    the contrast curve for the polynomial classes above."""
    from repro.workloads.paper import intro_alpha2
    sigma = intro_alpha2()

    def run():
        return chase(special_nodes_instance(8), sigma, max_steps=500)

    result = benchmark(run)
    assert not result.terminated
    assert result.length == 500


@pytest.mark.paper_artifact("observability")
def test_observability_disabled_overhead(benchmark):
    """The obs no-op fast path on a real chase family.

    Since the observability PR every layer carries ``if OBS.enabled:``
    guards; switched off (the default) they must cost nothing
    measurable, and this bench measures the *enabled* cost in the
    same process.  Both passes must chase identically, the disabled
    pass must leave the registry untouched, and metrics + sampled
    tracing together must stay within 1.5x of the disabled path
    (the ISSUE budget is 5% for *disabled*, not for enabled --
    enabled pays for real dict writes).
    """
    from repro.obs import metrics, trace
    from repro.obs.trace import Tracer

    factory, builder = example8_beta, example9_instance
    inst = builder(max(SIZES))

    def run_chase():
        return chase(inst, factory(), max_steps=2_000_000)

    metrics.enable(False)
    metrics.reset()
    result = benchmark(run_chase)
    assert result.terminated
    assert metrics.OBS.empty()          # zero writes on the fast path
    disabled_seconds = _best_of(run_chase)

    metrics.enable()
    try:
        with trace.tracing(Tracer(lambda record: None, sample=100)):
            enabled_result = run_chase()
            enabled_seconds = _best_of(run_chase)
    finally:
        metrics.enable(False)
    assert enabled_result.length == result.length
    assert metrics.OBS.counters["chase.runs"] >= 1
    metrics.reset()

    overhead = enabled_seconds / disabled_seconds
    print(f"\nobs overhead: disabled {disabled_seconds:.4f}s, "
          f"enabled+traced {enabled_seconds:.4f}s at n={max(SIZES)} "
          f"(x{overhead:.2f})")
    if max(SIZES) >= 16:  # below that, timings are noise-dominated
        assert overhead <= 1.5, (
            f"enabled observability costs x{overhead:.2f} on the "
            f"chase family (budget: 1.5x)")
