"""Results kept as JSON text: the encoder and the splice, against
oracles.

The text encoder of :mod:`repro.service.serialize` must give the bytes,
the fact order and the instance fingerprints of the per-occurrence
encoder it replaced (``wire_oracle``).  Every body spliced from stored
text must equal ``json.dumps(payload, sort_keys=True)`` of the payload
the decoded result would give.
"""

import asyncio
import json
import sys

import pytest

import wire_oracle
from gateway_utils import (DIVERGENT, gateway, query_spec,
                           request_raw_body, spec)
from repro.chase import chase
from repro.fuzz.generate import generate_case
from repro.lang.atoms import Atom
from repro.lang.instance import Instance
from repro.lang.terms import Constant, Null
from repro.service.cache import ServiceCache
from repro.service.http import _JobRecord
from repro.service.jobs import (ChaseJob, execute_job, instance_fingerprint,
                                JobResult, STATUS_ERROR, STATUS_KILLED)
from repro.service.serialize import (canonical_facts, dumps, encode_facts,
                                     encode_rows, RawJSON)

#: Terms whose encodings are easy to get wrong: quotes, backslashes,
#: control and non-ASCII characters, negative and large ints, floats
#: whose repr is unusual, values equal across types, and null labels 9
#: and 10, whose string order differs from their numeric order.
TRICKY_TERMS = (
    Constant('say "hi"'), Constant("back\\slash"), Constant("naïve ✓"),
    Constant("tab\tnew\nline\x00"), Constant(""), Constant("1"),
    Constant(-7), Constant(0), Constant(10 ** 30), Constant(-(10 ** 20)),
    Constant(1.5), Constant(1e16), Constant(-0.0), Constant(True),
    Constant(False), Null(9), Null(10), Null(1),
)
#: Relation names that are prefixes of one another, and a non-ASCII one.
RELATIONS = ("R", "R1", "R10", "Rel", "Relation", "Ré")


def tricky_facts():
    facts = [Atom("Z", ())]
    for index, relation in enumerate(RELATIONS):
        for position, term in enumerate(TRICKY_TERMS):
            facts.append(Atom(relation, (term,)))
            other = TRICKY_TERMS[(position + index + 1) % len(TRICKY_TERMS)]
            facts.append(Atom(relation, (term, other)))
    return facts


def assert_matches_oracle(facts):
    facts = list(facts)
    text = encode_facts(facts)
    assert text == wire_oracle.facts_text(facts)
    assert json.loads(text) == wire_oracle.encode_facts(facts)
    assert [id(fact) for fact in canonical_facts(facts)] == \
        [id(fact) for fact in sorted(facts, key=wire_oracle.atom_sort_key)]


# ----------------------------------------------------------------------
# the encoder against the per-occurrence oracle
# ----------------------------------------------------------------------
def test_tricky_facts_encode_like_the_oracle():
    assert_matches_oracle(tricky_facts())


def test_facts_with_equal_but_differently_encoded_terms():
    # Constant(1), Constant(1.0) and Constant(True) are equal terms with
    # three encodings; each fact keeps its own.
    facts = [Atom("R", (Constant(1),)), Atom("S", (Constant(1.0),)),
             Atom("T", (Constant(True),)), Atom("U", (Constant(0.0),)),
             Atom("V", (Constant(-0.0),))]
    assert_matches_oracle(facts)
    assert_matches_oracle(reversed(facts))


def test_null_labels_sort_as_strings():
    text = encode_facts([Atom("R", (Null(9),)), Atom("R", (Null(10),))])
    assert text == '[["R", [["n", 10]]], ["R", [["n", 9]]]]'


def test_instances_encode_and_fingerprint_like_the_oracle():
    instance = Instance(tricky_facts())
    assert encode_facts(instance) == wire_oracle.facts_text(instance)
    assert instance_fingerprint(instance) == \
        wire_oracle.instance_fingerprint(instance)


def test_answer_rows_encode_like_the_oracle():
    rows = {(term, other) for term in TRICKY_TERMS[:8]
            for other in TRICKY_TERMS[8:]}
    rows |= {(term,) for term in TRICKY_TERMS} | {()}
    assert encode_rows(rows) == wire_oracle.rows_text(rows)
    assert encode_rows([]) == "[]"


def test_seed0_fuzz_corpus_encodes_like_the_oracle():
    """The 200 seed-0 fuzz instances and a budgeted chase of each, whose
    fresh nulls the instances lack."""
    for index in range(200):
        case = generate_case(0, index)
        result = chase(case.instance, list(case.sigma), max_steps=60)
        for instance in (case.instance, result.instance):
            assert encode_facts(instance) == \
                wire_oracle.facts_text(instance), case.label()
            assert instance_fingerprint(instance) == \
                wire_oracle.instance_fingerprint(instance), case.label()


# ----------------------------------------------------------------------
# the splice against json.dumps
# ----------------------------------------------------------------------
SPLICE_PAYLOADS = [
    {},
    {"only": RawJSON("[1, 2]")},
    {"a": 1, "b": RawJSON('{"x": [true, null]}'), "c": "é\"",
     "d": {"z": 1, "a": [2.5, None]}, "e": RawJSON("[]"), "f": False},
    {"z": RawJSON("3"), "a": RawJSON('"s"')},
    {"plain": [1, {"b": 2, "a": 1}], "x": -0.0, "y": 1e16},
]


@pytest.mark.parametrize("payload", SPLICE_PAYLOADS)
def test_dumps_splices_like_json_dumps(payload):
    decoded = {key: json.loads(value.text) if isinstance(value, RawJSON)
               else value for key, value in payload.items()}
    assert dumps(payload) == json.dumps(decoded, sort_keys=True)


def test_raw_json_never_passes_as_a_string():
    with pytest.raises(TypeError):
        json.dumps({"result": RawJSON("[]")})


def make_job(name="job", constraints="a1: S(x) -> E(x, y)",
             instance="S(a). S(b).", **knobs):
    payload = dict(name=name, constraints=constraints, instance=instance,
                   **knobs)
    return ChaseJob.from_dict(payload)


def results_of_every_kind():
    """A chase, query, failed, budget-aborted, wall-clock-aborted,
    killed, error and cached result."""
    chase_result = execute_job(make_job("chase"))
    cache = ServiceCache()
    cache.store_result(chase_result)
    results = {
        "chase": chase_result,
        "query": execute_job(make_job("query", instance="E(a, b). S(a).",
                                      query="q(x) <- E(x, y)")),
        "failed": execute_job(make_job(
            "failed", constraints="e: E(x, y), E(x, z) -> y = z",
            instance="E(a, b). E(a, c).")),
        "failed_query": execute_job(make_job(
            "failed_query", constraints="e: E(x, y), E(x, z) -> y = z",
            instance="E(a, b). E(a, c).", query="q(x) <- E(x, y)")),
        "budget": execute_job(make_job("budget", constraints=DIVERGENT,
                                       max_steps=7)),
        "truncated_query": execute_job(make_job(
            "truncated_query", constraints=DIVERGENT, max_steps=7,
            query="q(x) <- S(x)")),
        "wall_clock": execute_job(make_job(
            "wall_clock", constraints=DIVERGENT, max_steps=10 ** 9,
            wall_clock=0.01)),
        "killed": JobResult(job="killed", fingerprint="f" * 64,
                            status=STATUS_KILLED,
                            failure_reason="hard timeout of 1s exceeded"),
        "error": JobResult(job='err "quoted"', fingerprint="",
                           status=STATUS_ERROR,
                           failure_reason='Traceback:\n  "bad" \\ ✗'),
        "cached": cache.lookup_result(make_job("renamed")),
    }
    assert results["failed"].status == "failed"
    assert results["budget"].status == "exceeded_budget"
    assert results["truncated_query"].truncated
    assert results["wall_clock"].status == "exceeded_wall_clock"
    assert results["cached"].cached
    return results


def test_results_of_every_kind_splice_like_json_dumps():
    for kind, result in results_of_every_kind().items():
        assert result.to_json() == json.dumps(result.to_dict(),
                                              sort_keys=True), kind
        assert JobResult.from_dict(result.to_dict()) == result, kind
        record = _JobRecord(id="j1", name=result.job, kind="chase",
                            fingerprint=result.fingerprint, state="done",
                            result=result.to_json())
        expected = dict(record.poll_payload(), result=result.to_dict())
        assert dumps(record.poll_payload()) == \
            json.dumps(expected, sort_keys=True), kind


def canonical(body: bytes) -> bool:
    return body.decode("utf-8") == \
        json.dumps(json.loads(body), sort_keys=True) + "\n"


def test_gateway_bodies_are_spliced_like_json_dumps():
    """Every body that carries a stored result -- ``POST /jobs``
    (executed and cached), ``GET /jobs/<id>``, the events stream's
    result record and ``GET /results/<fp>`` -- is byte for byte the
    ``json.dumps`` of its decoded payload, and carries the result an
    in-process run gives."""
    specs = [spec("chase"), query_spec("query"),
             spec("failed", constraints="e: E(x, y), E(x, z) -> y = z",
                  instance="E(a, b). E(a, c)."),
             spec("budget", constraints=DIVERGENT, max_steps=7),
             spec("wall_clock", constraints=DIVERGENT, max_steps=10 ** 9,
                  wall_clock=0.01)]

    async def main():
        async with gateway() as gw:
            for payload in specs:
                direct = execute_job(ChaseJob.from_dict(payload)).to_dict()
                bodies = []
                for _ in range(2):        # executed, then cached
                    status, _, body = await request_raw_body(
                        gw.port, "POST", "/jobs?wait=1", body=payload)
                    assert status == 200 and canonical(body)
                    bodies.append(body)
                reply = json.loads(bodies[0])
                deterministic = direct["status"] != "exceeded_wall_clock"
                if deterministic:
                    for field in ("status", "steps", "facts", "answers"):
                        assert reply["result"][field] == direct[field]
                _, _, polled = await request_raw_body(
                    gw.port, "GET", f"/jobs/{reply['id']}")
                assert canonical(polled)
                assert json.loads(polled)["result"] == reply["result"]
                _, _, events = await request_raw_body(
                    gw.port, "GET", f"/jobs/{reply['id']}/events")
                last = events.decode("utf-8").splitlines()[-1] + "\n"
                assert canonical(last.encode("utf-8"))
                assert json.loads(last)["result"] == reply["result"]
                status, _, fetched = await request_raw_body(
                    gw.port, "GET",
                    f"/results/{reply['result']['fingerprint']}")
                if not deterministic:
                    assert status == 404          # never cached
                    continue
                assert status == 200 and canonical(fetched)
                assert json.loads(fetched)["facts"] == direct["facts"]
    asyncio.run(main())


# ----------------------------------------------------------------------
# the compact stored form
# ----------------------------------------------------------------------
def deep_size(obj, seen=None) -> int:
    """Bytes of ``obj`` and everything it references, each once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(deep_size(key, seen) + deep_size(value, seen)
                    for key, value in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_size(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_size(vars(obj), seen)
    return size


def test_a_cached_result_costs_about_its_text():
    instance = " ".join(f"S(a{index})." for index in range(600))
    result = execute_job(make_job(
        "big", constraints="a1: S(x) -> E(x, y), T(y, x)",
        instance=instance))
    assert len(result.facts) >= 1000
    cache = ServiceCache()
    cache.store_result(result)
    entry = cache.results.get(result.fingerprint)
    assert isinstance(entry.facts_json, str)
    assert deep_size(entry) < 2 * len(entry.facts_json)


# ----------------------------------------------------------------------
# stored bytes
# ----------------------------------------------------------------------
def test_compartments_report_their_stored_bytes():
    cache = ServiceCache(result_size=2)
    results = [execute_job(make_job(f"j{n}", instance=f"S(a{n}). " * n))
               for n in (1, 2, 3)]
    for result in results[:2]:
        cache.store_result(result)
    stored = [cache.results.get(result.fingerprint)
              for result in results[:2]]
    assert cache.stats()["results"]["bytes"] == \
        sum(len(entry.to_json()) for entry in stored)
    cache.store_result(results[2])             # evicts the first
    kept = [cache.results.get(result.fingerprint)
            for result in results[1:]]
    assert cache.stats()["results"]["bytes"] == \
        sum(len(entry.to_json()) for entry in kept)
    cache.report_for(make_job().sigma)
    assert cache.stats()["reports"]["bytes"] == len("S(x) -> E(x, y)")
    cache.clear()
    assert all(compartment["bytes"] == 0
               for compartment in cache.stats().values())


def test_gateway_stats_report_record_bytes():
    async def main():
        async with gateway() as gw:
            await request_raw_body(gw.port, "POST", "/jobs?wait=1",
                                   body=spec("rb"))
            await request_raw_body(gw.port, "POST", "/jobs?wait=1",
                                   body=spec("rb"))
            _, _, body = await request_raw_body(gw.port, "GET", "/stats")
            stats = json.loads(body)
            records = list(gw._records.values())
            assert any(record.events for record in records)
            texts = [record.result for record in records]
            texts += [event for record in records for event in record.events]
            assert stats["gateway"]["records_bytes"] == \
                sum(map(len, texts)) > 0
            assert stats["cache"]["results"]["bytes"] > 0
            assert stats["cache"]["specs"]["bytes"] > 0
    asyncio.run(main())


def test_event_stream_lines_are_the_stored_event_texts():
    """Each progress event is kept as the JSON text its chunk carries,
    and every line of the stream is still ``json.dumps(payload,
    sort_keys=True)`` of the event it reports."""
    async def main():
        async with gateway() as gw:
            _, _, body = await request_raw_body(
                gw.port, "POST", "/jobs?wait=1", body=spec("ev"))
            record_id = json.loads(body)["id"]
            _, _, stream = await request_raw_body(
                gw.port, "GET", f"/jobs/{record_id}/events")
            lines = stream.decode("utf-8").splitlines()
            record = gw._records[record_id]
            assert lines[:-1] == record.events
            kinds = [json.loads(line)["kind"] for line in lines]
            assert kinds[0] == "queued" and "finished" in kinds
            assert kinds[-1] == "result"
            for line in lines:
                payload = json.loads(line)
                assert line == json.dumps(payload, sort_keys=True)
            for line in lines[:-1]:
                assert sorted(json.loads(line)) == \
                    ["detail", "fingerprint", "job", "kind", "ts"]
    asyncio.run(main())


def test_pool_results_come_back_as_text():
    from repro.service.pool import WorkerPool
    jobs = [make_job(f"p{n}", instance=f"S(p{n}).") for n in range(2)]
    with WorkerPool(workers=2, default_hard_timeout=60) as pool:
        pooled = pool.run(jobs)
    for job, result in zip(jobs, pooled):
        assert result.worker.startswith("pid-")
        assert result.facts_json == execute_job(job).facts_json
