"""LRU cache semantics and the two-compartment service cache."""

from repro.lang.parser import parse_constraints
from repro.service.cache import LRUCache, ServiceCache
from repro.service.jobs import (ChaseJob, execute_job, JobResult,
                                STATUS_KILLED)


def make_job(**kw):
    payload = {"constraints": "a1: S(x) -> E(x, y)", "instance": "S(a)."}
    payload.update(kw)
    return ChaseJob.from_dict(payload, name=kw.get("name", "job"))


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
def test_lru_evicts_coldest_entry():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert "a" not in cache
    assert cache.get("b") == 2 and cache.get("c") == 3
    assert cache.evictions == 1


def test_lru_get_promotes():
    cache = LRUCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")              # promote: "b" is now coldest
    cache.put("c", 3)
    assert "a" in cache and "b" not in cache


def test_lru_stats_and_clear():
    cache = LRUCache(maxsize=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    cache.clear()
    assert len(cache) == 0


def test_lru_maxsize_zero_disables_caching():
    cache = LRUCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert len(cache) == 0


# ----------------------------------------------------------------------
# ServiceCache
# ----------------------------------------------------------------------
def test_result_cache_roundtrip_marks_cached_and_renames():
    cache = ServiceCache()
    job = make_job(name="original")
    result = execute_job(job)
    assert cache.store_result(result)
    hit = cache.lookup_result(make_job(name="other"))
    assert hit is not None
    assert hit.cached and hit.job == "other"
    assert hit.facts == result.facts
    # The stored entry itself is untouched.
    assert not cache.results.get(job.fingerprint()).cached


def test_result_cache_rejects_nondeterministic_outcomes():
    cache = ServiceCache()
    job = make_job(constraints="a2: S(x) -> E(x, y), S(y)",
                   max_steps=10_000_000, wall_clock=0.02)
    wall = execute_job(job)
    assert wall.status == "exceeded_wall_clock"
    assert not cache.store_result(wall)
    killed = JobResult(job="k", fingerprint="f", status=STATUS_KILLED)
    assert not cache.store_result(killed)
    assert cache.lookup_result(job) is None


def test_report_cache_shares_one_analysis_across_orders():
    cache = ServiceCache()
    forward = parse_constraints("S(x) -> E(x, y)\nE(x, y) -> T(y)")
    backward = list(reversed(forward))
    first = cache.report_for(forward)
    second = cache.report_for(backward)     # same set, different order
    assert first is second
    assert cache.reports.stats()["hits"] == 1
    assert cache.reports.stats()["misses"] == 1


def test_cache_stats_and_clear():
    cache = ServiceCache()
    job = make_job()
    cache.store_result(execute_job(job))
    cache.report_for(job.sigma)
    stats = cache.stats()
    assert stats["results"]["size"] == 1
    assert stats["reports"]["size"] == 1
    cache.clear()
    assert cache.lookup_result(job) is None


def test_warm_report_lookup_renders_and_hashes_nothing(monkeypatch):
    """A freshly parsed copy of a cached set finds its report by the
    constraints' structural hashes: no set fingerprint is computed."""
    import repro.service.cache as cache_module
    import repro.termination.report as report_module
    text = "a1: S(x) -> E(x, y)\na2: E(x, y) -> T(y)"
    cache = ServiceCache()
    first = cache.report_for(parse_constraints(text))
    first.fingerprint()
    calls = []
    real = report_module.constraint_set_fingerprint

    def counting(sigma):
        calls.append(sigma)
        return real(sigma)
    # Wherever the function is looked up from.
    for module in (report_module, cache_module):
        if hasattr(module, "constraint_set_fingerprint"):
            monkeypatch.setattr(module, "constraint_set_fingerprint",
                                counting)
    relabelled = "b2: E(x, y) -> T(y)\nb1: S(x) -> E(x, y)"
    assert cache.report_for(parse_constraints(relabelled)) is first
    assert calls == []


def test_report_key_counts_repeated_constraints():
    # The set fingerprint's sorted renderings count a repeat, so a
    # listing with a repeat gets its own report, as before.
    cache = ServiceCache()
    once = cache.report_for(parse_constraints("S(x) -> E(x, y)"))
    twice = cache.report_for(parse_constraints(
        "S(x) -> E(x, y)\nS(x) -> E(x, y)"))
    assert once is not twice
    assert once.fingerprint() != twice.fingerprint()
