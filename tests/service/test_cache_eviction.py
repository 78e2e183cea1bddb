"""ServiceCache eviction under interleaved traffic at tiny capacities.

The serve loop keeps one :class:`ServiceCache` alive for its whole
lifetime; these tests squeeze it to capacity 1-2 and drive interleaved
chase/query jobs through a 1-worker in-process scheduler to pin the
LRU contract: promotion on hit, coldest-first eviction, and the
soundness rule that timing-dependent outcomes (wall-clock aborts) are
never stored.
"""

import pytest

from repro.service.cache import LRUCache, ServiceCache
from repro.service.jobs import ChaseJob
from repro.service.scheduler import BatchScheduler

TERMINATING = "a1: S(x) -> E(x, y)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def chase_job(letter: str, **overrides) -> ChaseJob:
    return ChaseJob.from_dict({
        "name": f"chase_{letter}", "constraints": TERMINATING,
        "instance": f"S({letter}).", "strategy": "round_robin",
        "max_steps": 100, **overrides})


def query_job(letter: str, **overrides) -> ChaseJob:
    return ChaseJob.from_dict({
        "name": f"query_{letter}", "constraints": TERMINATING,
        "instance": f"S({letter}).", "query": "q(x) <- S(x)",
        "strategy": "round_robin", "max_steps": 100, **overrides})


@pytest.fixture
def scheduler_factory():
    schedulers = []

    def make(result_size: int) -> BatchScheduler:
        scheduler = BatchScheduler(
            workers=1, cache=ServiceCache(result_size=result_size))
        schedulers.append(scheduler)
        return scheduler

    yield make
    for scheduler in schedulers:
        scheduler.close()


# ----------------------------------------------------------------------
# LRU order through the scheduler at capacity 2
# ----------------------------------------------------------------------
def test_recently_hit_entry_survives_eviction(scheduler_factory):
    scheduler = scheduler_factory(result_size=2)
    a, b, c = chase_job("a"), chase_job("b"), chase_job("c")
    assert not scheduler.run_one(a).cached
    assert not scheduler.run_one(b).cached
    # Touch a: it becomes the most recently used entry...
    assert scheduler.run_one(a).cached
    # ...so inserting c evicts b, the coldest, not a.
    assert not scheduler.run_one(c).cached
    assert scheduler.cache.results.evictions == 1
    assert scheduler.run_one(a).cached
    assert not scheduler.run_one(b).cached      # b was evicted: re-runs


def test_interleaved_chase_and_query_jobs_share_the_result_cache(
        scheduler_factory):
    scheduler = scheduler_factory(result_size=2)
    jobs = [chase_job("a"), query_job("a"), chase_job("a"), query_job("a")]
    results = [scheduler.run_one(job) for job in jobs]
    # Chase and query results live in the same compartment, keyed on
    # distinct fingerprints: both second visits are warm.
    assert [r.cached for r in results] == [False, False, True, True]
    assert results[3].answers == results[1].answers
    assert len(scheduler.cache.results) == 2


def test_capacity_one_thrashes_under_alternation(scheduler_factory):
    scheduler = scheduler_factory(result_size=1)
    results = []
    for _ in range(3):
        results.append(scheduler.run_one(chase_job("a")))
        results.append(scheduler.run_one(query_job("a")))
    # Alternating distinct fingerprints through a single slot: every
    # run evicts the other entry, so nothing is ever served warm.
    assert not any(r.cached for r in results)
    assert scheduler.cache.results.evictions == 5
    assert len(scheduler.cache.results) == 1


def test_capacity_one_serves_repeats_of_the_same_job(scheduler_factory):
    scheduler = scheduler_factory(result_size=1)
    first = scheduler.run_one(chase_job("a"))
    repeats = [scheduler.run_one(chase_job("a")) for _ in range(3)]
    assert not first.cached
    assert all(r.cached for r in repeats)
    assert scheduler.cache.results.evictions == 0


# ----------------------------------------------------------------------
# non-deterministic outcomes are never cached
# ----------------------------------------------------------------------
def test_wall_clock_aborts_are_not_cached(scheduler_factory):
    scheduler = scheduler_factory(result_size=2)
    divergent = ChaseJob.from_dict({
        "name": "divergent", "constraints": DIVERGENT,
        "instance": "S(a).", "strategy": "round_robin",
        "max_steps": 1_000_000, "wall_clock": 0.0})
    first = scheduler.run_one(divergent)
    second = scheduler.run_one(divergent)
    assert first.status == "exceeded_wall_clock"
    assert not first.cacheable
    assert not second.cached
    assert len(scheduler.cache.results) == 0


def test_wall_clock_abort_between_cacheable_jobs_leaves_lru_intact(
        scheduler_factory):
    scheduler = scheduler_factory(result_size=2)
    aborting = ChaseJob.from_dict({
        "name": "divergent", "constraints": DIVERGENT,
        "instance": "S(a).", "strategy": "round_robin",
        "max_steps": 1_000_000, "wall_clock": 0.0})
    scheduler.run_one(chase_job("a"))
    scheduler.run_one(chase_job("b"))
    scheduler.run_one(aborting)                 # must not evict a or b
    assert scheduler.run_one(chase_job("a")).cached
    assert scheduler.run_one(chase_job("b")).cached
    assert scheduler.cache.results.evictions == 0


def test_store_result_refuses_non_deterministic_statuses():
    cache = ServiceCache(result_size=4)
    job = chase_job("a", wall_clock=0.0, constraints=DIVERGENT,
                    max_steps=1_000_000)
    from repro.service.jobs import execute_job
    result = execute_job(job)
    assert result.status == "exceeded_wall_clock"
    assert cache.store_result(result) is False
    assert len(cache.results) == 0


# ----------------------------------------------------------------------
# LRUCache unit behaviour backing the above
# ----------------------------------------------------------------------
def test_lru_get_promotes_and_eviction_counts():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1                  # promote a over b
    cache.put("c", 3)                           # evicts b
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.evictions == 1


def test_lru_maxsize_zero_disables_storage():
    cache = LRUCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0
