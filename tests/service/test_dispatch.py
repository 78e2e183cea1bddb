"""The transport-neutral dispatch layer: table lookup, structured
errors, budgets.

The load-bearing regressions here: a request whose ``kind`` resolves
through the dispatch table but whose payload is incomplete (missing
required fields) must come back as a *structured* error reply --
``{"status": "error", "error": <code>, "kind": <kind>,
"failure_reason": ...}`` -- never silence, never a raised exception.
Both serve transports (NDJSON and HTTP) sit on this contract.
"""

import contextlib
import json

import pytest

from gateway_utils import DIVERGENT, parses, spec, TERMINATING  # noqa: F401
from repro.service import BatchScheduler, ServiceCache
from repro.service.dispatch import (error_payload, RequestError,
                                    request_kind, ServiceSession)


@contextlib.contextmanager
def make_session(result_size=64):
    scheduler = BatchScheduler(workers=1,
                               cache=ServiceCache(result_size=result_size))
    try:
        yield ServiceSession(scheduler)
    finally:
        scheduler.close()


@pytest.fixture
def session():
    with make_session() as session:
        yield session


# ----------------------------------------------------------------------
# request_kind: the dispatch key
# ----------------------------------------------------------------------
def test_request_kind_mirrors_job_discriminator():
    assert request_kind({"kind": "chase"}) == "chase"
    assert request_kind({"kind": "stats"}) == "stats"
    assert request_kind({"constraints": "..."}) == "chase"
    assert request_kind({"query": "q(x) <- S(x)"}) == "query"


def test_request_kind_rejects_non_dicts_and_bad_kinds():
    with pytest.raises(RequestError) as exc_info:
        request_kind([1, 2, 3])
    assert exc_info.value.code == "invalid_request"
    with pytest.raises(RequestError) as exc_info:
        request_kind({"kind": 7})
    assert exc_info.value.code == "invalid_request"


# ----------------------------------------------------------------------
# the satellite fix: valid kind, incomplete payload -> structured error
# ----------------------------------------------------------------------
def test_valid_kind_with_missing_fields_is_a_structured_error(session):
    """The dispatch-table lookup succeeding is no promise the payload
    is complete: ``{"kind": "chase"}`` resolves to the job handler but
    misses every required field.  The reply must be the structured
    error contract, with the kind echoed so batched clients can
    attribute the rejection."""
    reply = session.handle({"kind": "chase"})
    assert reply["status"] == "error"
    assert reply["error"] == "invalid_spec"
    assert reply["kind"] == "chase"
    assert "constraints" in reply["failure_reason"]
    assert "Traceback" not in reply["failure_reason"]


def test_query_kind_with_missing_fields_echoes_query(session):
    reply = session.handle({"kind": "query",
                            "constraints": TERMINATING})
    assert reply["status"] == "error"
    assert reply["kind"] == "query"


def test_wrong_typed_fields_are_structured_not_raised(session):
    reply = session.handle({"constraints": 5, "instance": "S(a)."})
    assert reply["status"] == "error"
    assert reply["kind"] == "chase"
    # Whatever blew up inside the handler, the reply is structured.
    assert isinstance(reply["failure_reason"], str)


def test_unknown_kind_is_a_structured_error(session):
    reply = session.handle({"kind": "frobnicate"})
    assert reply["status"] == "error"
    assert reply["error"] == "unknown_kind"
    assert "frobnicate" in reply["failure_reason"]


def test_handle_never_raises_even_for_garbage(session):
    for garbage in (None, 42, "x", [], {"kind": None, "query": 9}):
        reply = session.handle(garbage)
        assert reply["status"] in ("error",) or "status" in reply


# ----------------------------------------------------------------------
# handle_line: the NDJSON transport surface
# ----------------------------------------------------------------------
def test_handle_line_blank_and_bad_json(session):
    assert session.handle_line("   \n") is None
    reply = session.handle_line("{not json")
    assert reply["status"] == "error"
    assert reply["error"] == "invalid_json"


def test_handle_line_serves_jobs_and_stats(session):
    import json
    reply = session.handle_line(json.dumps(spec("j1")))
    assert reply["status"] == "terminated"
    reply = session.handle_line('{"kind": "stats"}')
    assert reply["kind"] == "stats"
    assert "metrics" in reply and "cache" in reply


def test_a_fixpoint_reached_at_the_step_cap_is_served_as_terminated(
        session):
    """Two steps reach the fixpoint: a two-step cap must not turn that
    into a budget abort, and the cached reply must not say so either."""
    def reply(max_steps):
        payload = session.handle_line(json.dumps(
            {"constraints": "S(x) -> T(x)", "instance": "S(a). S(b).",
             "max_steps": max_steps}))
        return {key: payload[key] for key in ("status", "steps", "facts")}

    capped = reply(2)
    assert capped == reply(3)
    assert capped["status"] == "terminated" and capped["steps"] == 2
    assert reply(2) == capped                    # the cached replay


def test_an_inconsistency_met_only_by_the_fallback_is_served_as_failed(
        session):
    """Under ``ordered`` the exact chase hits its step cap first and
    only the depth-bounded fallback meets the failing EGD; the reply
    is ``failed`` as under ``round_robin``, whose exact chase fails,
    and its repeat is served from the cache."""
    spec = {"constraints": "a: S(x) -> E(x, y), S(y). e: T(x, y) -> x = y",
            "instance": "S(a). T(b, c).", "query": "q(x) <- S(x)",
            "strategy": "ordered", "max_steps": 5, "depth_limit": 1}

    def reply(strategy):
        payload = session.handle_line(json.dumps(dict(spec,
                                                      strategy=strategy)))
        return {key: payload[key] for key in (
            "status", "steps", "new_nulls", "failure_reason", "answers",
            "truncated", "cached")}

    first = reply("ordered")
    assert first == {"status": "failed", "steps": 5, "new_nulls": 5,
                     "failure_reason": "EGD e equates distinct constants "
                                       "b and c",
                     "answers": None, "truncated": False, "cached": False}
    assert reply("ordered") == dict(first, cached=True)
    exact = reply("round_robin")
    assert (exact["status"], exact["failure_reason"]) \
        == ("failed", first["failure_reason"])


def test_constants_of_different_json_types_stay_distinct():
    """``true``, ``1`` and ``1.0`` are three constants, and ``0.0`` and
    ``-0.0`` two, although Python equates them; the order the facts
    are listed in moves neither the fingerprint nor the reply bytes."""
    def reply(values):
        facts = [["S", [["c", value]]] for value in values]
        with make_session() as fresh:
            payload = fresh.handle_line(json.dumps(
                {"constraints": "S(x) -> T(x)",
                 "instance": {"facts": facts}}))
        return json.dumps({key: value for key, value in payload.items()
                           if key not in ("elapsed", "worker")},
                          sort_keys=True)

    mixed = reply([True, 1, 1.0])
    assert json.loads(mixed)["facts"] == [
        ["S", [["c", 1.0]]], ["S", [["c", 1]]], ["S", [["c", True]]],
        ["T", [["c", 1.0]]], ["T", [["c", 1]]], ["T", [["c", True]]]]
    assert reply([1, 1.0, True]) == reply([1.0, True, 1]) == mixed
    zeros = json.loads(reply([0.0, -0.0]))
    assert len(zeros["facts"]) == 4
    assert reply([-0.0, 0.0]) == json.dumps(zeros, sort_keys=True)


# ----------------------------------------------------------------------
# parse_job / budgets / cached_result (the HTTP gateway surface)
# ----------------------------------------------------------------------
def test_parse_job_returns_the_planned_job(session):
    plan = session.parse_job(spec("p1"))         # strategy="auto" spec
    job = plan.job
    assert job.strategy in ("round_robin", "stratified")
    assert plan.guaranteed
    # The planned fingerprint is the cache key: running the plan and
    # looking its fingerprint up must agree.
    result = session.scheduler.run_one(plan)
    assert session.cached_result(job.fingerprint()) is not None
    assert result.fingerprint == job.fingerprint()


def test_a_served_request_is_planned_once(session):
    calls = []
    plan_job = session.scheduler.plan_job
    session.scheduler.plan_job = lambda job: calls.append(job) \
        or plan_job(job)
    assert session.handle(spec("once"))["status"] == "terminated"
    assert session.handle(spec("once"))["cached"]
    assert len(calls) == 2                       # one per request


def test_parse_job_applies_unknown_step_cap(session):
    job = session.parse_job(spec("p2", constraints=DIVERGENT,
                                 max_steps=10_000_000)).job
    assert job.max_steps == session.scheduler.unknown_step_cap


def test_request_wall_clock_clamps_only_looser_budgets(session):
    session.request_wall_clock = 2.0
    assert session.budgeted(
        session.parse_job(spec("b1")).job).wall_clock == 2.0
    tight = session.parse_job(spec("b2", wall_clock=0.5)).job
    assert session.budgeted(tight).wall_clock == 0.5


def test_nan_wall_clock_is_rejected_and_cannot_escape_the_clamp(session):
    """Python's json decodes ``NaN``, and ``nan > budget`` is False: a
    NaN wall clock that got past parsing would outlive the session's
    per-request budget.  It is refused as an invalid spec, and a NaN
    that reaches the clamp anyway is clamped."""
    session.request_wall_clock = 0.05
    line = json.dumps(spec("nan", constraints=DIVERGENT,
                           wall_clock=float("nan")))
    assert "NaN" in line
    reply = session.handle_line(line)
    assert reply["status"] == "error"
    assert reply["error"] == "invalid_spec"
    assert "wall_clock" in reply["failure_reason"]
    job = session.parse_job(spec("nan2")).job
    assert session.budgeted(
        job.with_updates(wall_clock=float("nan"))).wall_clock == 0.05


def test_wall_clock_clamp_is_cache_sound(session):
    """wall_clock is excluded from fingerprints, so the clamp cannot
    fork the cache key space."""
    loose = session.parse_job(spec("b3")).job
    session.request_wall_clock = 1.0
    clamped = session.parse_job(spec("b3")).job
    assert clamped.wall_clock == 1.0
    assert clamped.fingerprint() == loose.fingerprint()


def test_cached_result_miss_is_none(session):
    assert session.cached_result("0" * 64) is None


def test_replies_decode_the_stored_text_for_ndjson(session):
    """The NDJSON reply is a dict with the facts decoded; the stored
    entry keeps only their text, and the HTTP surface gets the text."""
    cold = session.handle_line(json.dumps(spec("t1")))
    warm = session.handle_line(json.dumps(spec("t1")))
    assert warm["cached"] and warm["facts"] == cold["facts"]
    assert isinstance(cold["facts"], list) and cold["facts"]
    entry = session.scheduler.cache.results.get(cold["fingerprint"])
    assert json.loads(entry.facts_json) == cold["facts"]
    text = session.cached_result(cold["fingerprint"])
    assert text == json.dumps(dict(cold, cached=True, elapsed=entry.elapsed,
                                   job=entry.job), sort_keys=True)


def test_ndjson_stats_report_stored_bytes(session):
    session.handle_line(json.dumps(spec("s1")))
    cache = session.handle_line('{"kind": "stats"}')["cache"]
    for compartment in ("results", "reports", "specs"):
        assert cache[compartment]["size"] == 1
        assert cache[compartment]["bytes"] > 0


def test_error_payload_shape():
    payload = error_payload("boom", "some_code", kind="chase")
    assert payload == {"status": "error", "error": "some_code",
                       "failure_reason": "boom", "kind": "chase"}
    assert "kind" not in error_payload("boom")


# ----------------------------------------------------------------------
# the spec memo: warm replies from a hash of the request's bytes
# ----------------------------------------------------------------------
def compact(payload):
    """Another byte string of the same spec."""
    return json.dumps(payload, separators=(",", ":"))


def test_a_repeated_line_is_replayed_without_parsing(session, parses):
    line = json.dumps(spec("m1"))
    cold = session.handle_line(line)
    assert cold["status"] == "terminated" and not cold["cached"]
    # Other bytes of the same spec: parsed, planned, and hit by their
    # planned fingerprint.
    parsed = session.handle_line(compact(spec("m1")))
    assert parsed["cached"]
    assert len(parses) == 2
    replayed = session.handle_line(line)
    assert len(parses) == 2
    assert replayed == parsed
    specs = session.scheduler.cache.specs
    assert (specs.hits, len(specs)) == (1, 2)


def test_a_replay_counts_as_a_result_hit(session):
    line = json.dumps(spec("m2"))
    session.handle_line(line)
    results = session.scheduler.cache.results
    before = (results.hits, results.misses)
    session.handle_line(line)
    assert (results.hits, results.misses) == (before[0] + 1, before[1])


def test_an_evicted_result_is_parsed_and_run_again(parses):
    with make_session(result_size=2) as session:
        line = json.dumps(spec("e1"))
        first = session.handle_line(line)
        # Requests without bytes are not memoized: these two push
        # e1's result, and only its result, out of the cache.
        session.handle(spec("e2", instance="S(c)."))
        session.handle(spec("e3", instance="S(d)."))
        cache = session.scheduler.cache
        assert first["fingerprint"] not in cache.results
        assert len(cache.specs) == 1
        del parses[:]
        again = session.handle_line(line)
        assert len(parses) == 1
        assert not again["cached"]
        del first["elapsed"], again["elapsed"]
        assert again == first
        assert session.handle_line(line)["cached"]
        assert len(parses) == 1


def test_rejected_lines_are_never_memoized(session, parses):
    lines = ["{not json", "[1, 2]", '{"kind": "chase"}',
             '{"kind": "stats"}', '{"kind": "frobnicate"}',
             json.dumps(spec("bad", constraints="a1: S(x) ->")),
             json.dumps(spec("unstratified", constraints=DIVERGENT,
                             strategy="stratified"))]
    for _ in range(2):
        for line in lines:
            reply = session.handle_line(line)
            assert reply.get("status") == "error" or reply["kind"] == "stats"
    assert len(session.scheduler.cache.specs) == 0
    assert len(parses) == 2 * 3


def test_result_size_zero_never_replays(parses):
    with make_session(result_size=0) as session:
        line = json.dumps(spec("z1"))
        replies = [session.handle_line(line) for _ in range(2)]
        assert [reply["cached"] for reply in replies] == [False, False]
        assert len(parses) == 2
        assert len(session.scheduler.cache.specs) == 0


def test_lines_differing_only_in_name_keep_their_names(session, parses):
    x, y = json.dumps(spec("x")), json.dumps(spec("y"))
    assert session.handle_line(x)["job"] == "x"
    assert session.handle_line(y)["job"] == "y"        # planned, hit
    del parses[:]
    assert session.handle_line(x)["job"] == "x"        # replayed
    assert session.handle_line(y)["job"] == "y"        # replayed
    assert parses == []


def test_a_replayed_line_emits_the_events_of_a_planned_warm_one(session):
    """A replay emits what the scheduler emits for a warm job it
    planned: ``queued`` with the scheduling verdict, then ``cached``
    -- to the request's sink, else to the scheduler's own."""
    line = json.dumps(spec("ev", constraints=DIVERGENT, instance="S(a).",
                           max_steps=50))
    session.handle_line(line)
    planned, replayed, default = [], [], []
    session.handle_line(compact(json.loads(line)), on_event=planned.append)
    session.handle_line(line, on_event=replayed.append)
    session.scheduler.on_event = default.append
    session.handle_line(line)

    def shape(events):
        return [(e.kind, e.job, e.detail, e.fingerprint) for e in events]
    assert [event.kind for event in planned] == ["queued", "cached"]
    assert shape(replayed) == shape(planned)
    assert shape(default) == shape(planned)
    assert planned[0].detail["guaranteed"] is False
