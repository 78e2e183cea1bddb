"""Query jobs: fingerprints, execution semantics, service integration."""

import json

import pytest

from repro.kb.answering import certain_answers
from repro.lang.parser import parse_constraints, parse_instance, parse_query
from repro.service import (BatchScheduler, ChaseJob, execute_job,
                           job_from_dict, job_from_path, ServiceCache,
                           STATUS_ERROR)
from repro.service.serialize import decode_term, WireError
from repro.workloads.batch import query_batch_specs

TERMINATING = "symm: E(x, y) -> E(y, x)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


def make_job(name="q1", constraints=TERMINATING,
             instance="E(a, b). E(b, c).",
             query="q(x, z) <- E(x, y), E(y, z)", **kw):
    return ChaseJob(name=name,
                    sigma=tuple(parse_constraints(constraints)),
                    instance=parse_instance(instance),
                    query=parse_query(query), **kw)


def decoded(result):
    return {tuple(decode_term(term) for term in row)
            for row in result.answers}


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_name_and_wall_clock_excluded(self):
        base = make_job()
        assert base.fingerprint() == make_job(name="other").fingerprint()
        assert (base.fingerprint()
                == make_job(wall_clock=5.0).fingerprint())

    @pytest.mark.parametrize("change", [
        {"query": "q(x) <- E(x, y)"},
        {"constraints": DIVERGENT, "instance": "S(a)."},
        {"optimize": False},
        {"depth_limit": 7},
        {"max_steps": 99},
        {"strategy": "ordered"},
    ])
    def test_outcome_relevant_knobs_included(self, change):
        kw = {k: v for k, v in change.items()
              if k not in ("query", "constraints", "instance")}
        args = {k: change[k] for k in ("query", "constraints", "instance")
                if k in change}
        assert make_job().fingerprint() != make_job(**args, **kw).fingerprint()

    def test_wire_round_trip_preserves_fingerprint(self):
        job = make_job(backend="column", depth_limit=5, optimize=False)
        round_tripped = job_from_dict(job.to_dict())
        assert round_tripped.kind == "query"
        assert round_tripped.fingerprint() == job.fingerprint()

    def test_chase_and_query_jobs_never_collide(self):
        chase_job = ChaseJob(name="c", sigma=make_job().sigma,
                             instance=parse_instance("E(a, b). E(b, c)."))
        assert chase_job.fingerprint() != make_job().fingerprint()


# ----------------------------------------------------------------------
# Spec decoding
# ----------------------------------------------------------------------
class TestFromDict:
    def test_kind_dispatch(self):
        spec = {"constraints": TERMINATING, "instance": "E(a, b).",
                "query": "q(x) <- E(x, y)"}
        assert job_from_dict(spec).kind == "query"
        assert job_from_dict(dict(spec, kind="query")).kind == "query"
        with pytest.raises(WireError):
            job_from_dict(dict(spec, kind="bogus"))

    def test_missing_query_key(self):
        with pytest.raises(WireError):
            job_from_dict({"kind": "query", "constraints": TERMINATING,
                           "instance": "E(a, b)."})

    def test_non_string_query_rejected(self):
        with pytest.raises(WireError):
            job_from_dict({"constraints": TERMINATING,
                           "instance": "E(a, b).", "query": 5})

    def test_optimize_must_be_json_boolean(self):
        """bool("false") is True, so string values must be rejected
        instead of silently inverting a hand-written opt-out."""
        spec = {"constraints": TERMINATING, "instance": "E(a, b).",
                "query": "q(x) <- E(x, y)", "optimize": "false"}
        with pytest.raises(WireError):
            job_from_dict(spec)

    def test_explicit_null_knobs_mean_default(self):
        """JSON null for any knob -- optimize included -- means 'use
        the default', exactly like omitting the key, so the two spec
        forms share one fingerprint and one cache entry."""
        spec = {"constraints": TERMINATING, "instance": "E(a, b).",
                "query": "q(x) <- E(x, y)"}
        nulled = dict(spec, optimize=None, max_steps=None,
                      depth_limit=None)
        assert job_from_dict(nulled).optimize is True
        assert (job_from_dict(nulled).fingerprint()
                == job_from_dict(spec).fingerprint())


# ----------------------------------------------------------------------
# Execution semantics
# ----------------------------------------------------------------------
class TestExecution:
    def test_exact_path_matches_certain_answers(self):
        job = make_job()
        result = execute_job(job)
        assert result.terminated and not result.truncated
        assert result.facts is None
        reference = certain_answers(parse_instance("E(a, b). E(b, c)."),
                                    parse_constraints(TERMINATING),
                                    job.query)
        assert decoded(result) == reference

    def test_optimized_and_plain_agree(self):
        """The Section 4 rewriting is Sigma-equivalent, so both
        settings must produce identical certain answers."""
        sigma = "key: R(x, y), R(x, z) -> y = z"
        instance = "R(a, b). R(c, d). E(b, e)."
        query = "q(x) <- R(x, y), R(x, z), E(y, w)"
        plain = execute_job(make_job(constraints=sigma,
                                     instance=instance, query=query,
                                     optimize=False))
        optimized = execute_job(make_job(constraints=sigma,
                                         instance=instance, query=query))
        assert plain.answers == optimized.answers
        # ... and the rewriting really was smaller for this query
        assert len(parse_query(optimized.query).body) \
            < len(parse_query(plain.query).body)

    def test_fallback_honours_job_budgets(self):
        """The depth-bounded fallback must not run unbudgeted: a
        divergent job's max_facts bounds the prefix too, keeping the
        blast radius within the declared budget."""
        job = make_job(constraints=DIVERGENT, instance="S(a).",
                       query="q(u) <- S(u)", max_steps=100, max_facts=8)
        result = execute_job(job)
        assert result.status == "exceeded_budget"
        assert result.truncated and result.ok

    def test_divergent_set_truncates(self):
        job = make_job(constraints=DIVERGENT, instance="S(a). E(a, b). S(b).",
                       query="q(u) <- S(u), E(u, v)", max_steps=200)
        result = execute_job(job)
        assert result.status == "exceeded_budget"
        assert result.truncated
        assert decoded(result) == certain_answers(
            parse_instance("S(a). E(a, b). S(b)."),
            parse_constraints(DIVERGENT),
            job.query, max_steps=200)

    def test_inconsistent_kb_reports_failure(self):
        job = make_job(constraints="E(x, y), E(x, z) -> y = z",
                       instance="E(a, b). E(a, c).",
                       query="q(x) <- E(x, y)")
        result = execute_job(job)
        assert result.status == "failed"
        assert result.answers is None and result.ok

    def test_errors_never_propagate(self):
        result = execute_job(make_job(strategy="bogus"))
        assert result.status == STATUS_ERROR
        assert "bogus" in result.failure_reason

    def test_body_nulls_survive_optimization(self):
        """A labeled null in the query body matches itself exactly;
        the optimizer must keep it rigid instead of folding it or
        renaming it into a variable (regression: KeyError)."""
        job = make_job(instance="E(a, b). E(a, ?n7). E(?n7, c).",
                       query="q(x) <- E(x, ?n7)")
        result = execute_job(job)
        assert result.terminated, result.failure_reason
        plain = execute_job(job.with_updates(optimize=False))
        # symm closes E(?n7, c) into E(c, ?n7), so x binds a and c
        assert result.answers == plain.answers == [[["c", "a"]],
                                                   [["c", "c"]]]

    def test_answers_identical_across_backends(self):
        specs = query_batch_specs(6, seed=11)
        for spec in specs:
            per_backend = [execute_job(
                job_from_dict(dict(spec, backend=backend)))
                for backend in ("set", "column")]
            assert per_backend[0].answers == per_backend[1].answers
            assert per_backend[0].status == per_backend[1].status

    def test_answers_sorted_canonically(self):
        result = execute_job(make_job())
        keys = [json.dumps(row, sort_keys=True) for row in result.answers]
        assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Scheduler / cache / pool integration
# ----------------------------------------------------------------------
class TestServiceIntegration:
    def test_auto_strategy_pinned_from_report(self):
        from pathlib import Path
        events = []
        scheduler = BatchScheduler(workers=1, force_inprocess=True,
                                   on_event=events.append)
        job = job_from_path(
            Path(__file__).resolve().parents[2] / "examples" / "queries"
            / "stratified_only.json")
        planned, report, guaranteed = scheduler.plan_job(job)
        assert planned.strategy == "stratified"
        assert guaranteed and report.stratified
        scheduler.close()

    def test_warm_cache_rerun_executes_nothing(self):
        jobs = [job_from_dict(spec)
                for spec in query_batch_specs(6, seed=4)]
        with BatchScheduler(workers=1, cache=ServiceCache(),
                            force_inprocess=True) as scheduler:
            cold = scheduler.run_batch(jobs)
            executed = scheduler.pool.executed
            warm = scheduler.run_batch(jobs)
            assert scheduler.pool.executed == executed
            assert all(result.cached for result in warm)
            assert ([(r.job, r.status, r.answers) for r in warm]
                    == [(r.job, r.status, r.answers) for r in cold])

    def test_mixed_chase_and_query_batch(self):
        """Chase and query jobs share one batch: results in input
        order, each of its own shape."""
        chase_spec = {"name": "c", "constraints": TERMINATING,
                      "instance": "E(a, b)."}
        query_spec_ = {"name": "q", "constraints": TERMINATING,
                       "instance": "E(a, b).", "query": "q(x) <- E(x, y)"}
        jobs = [job_from_dict(chase_spec), job_from_dict(query_spec_)]
        with BatchScheduler(workers=1, force_inprocess=True) as scheduler:
            results = scheduler.run_batch(jobs)
        assert [r.job for r in results] == ["c", "q"]
        assert results[0].facts is not None and results[0].answers is None
        assert results[1].answers is not None and results[1].facts is None

    def test_parallel_workers_match_inprocess(self):
        """Query jobs through real worker processes: identical wire
        results to sequential in-process execution."""
        jobs = [job_from_dict(spec)
                for spec in query_batch_specs(6, seed=7)]
        with BatchScheduler(workers=2) as parallel:
            pooled = parallel.run_batch(jobs)
        with BatchScheduler(workers=1, force_inprocess=True) as sequential:
            inproc = sequential.run_batch(jobs)
        assert ([(r.job, r.status, r.answers, r.truncated) for r in pooled]
                == [(r.job, r.status, r.answers, r.truncated)
                    for r in inproc])
