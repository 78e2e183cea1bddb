"""Direct tests for every ``repro`` CLI subcommand.

``test_viz_cli.py`` covers the DOT output of ``graph``; this module
covers the commands themselves -- exit codes, stdout shape, option
handling -- including the service-layer ``batch`` and ``serve``.
"""

import io
import json

import pytest

from repro.cli import main

TERMINATING = "a1: S(x) -> E(x, y)"
DIVERGENT = "a2: S(x) -> E(x, y), S(y)"


@pytest.fixture
def constraint_file(tmp_path):
    def write(text, name="sigma.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text("S(a). S(b). E(a, b).")
    return str(path)


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def test_analyze_terminating_set(constraint_file, capsys):
    assert main(["analyze", constraint_file(TERMINATING)]) == 0
    out = capsys.readouterr().out
    assert "weakly_acyclic" in out and "True" in out


def test_analyze_divergent_set_exits_nonzero(constraint_file, capsys):
    assert main(["analyze", constraint_file(DIVERGENT)]) == 1
    assert "some sequence terminates : False" in capsys.readouterr().out


def test_analyze_missing_file_is_a_clean_error(capsys):
    assert main(["analyze", "/nonexistent/sigma.txt"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# chase
# ----------------------------------------------------------------------
def test_chase_terminating(constraint_file, instance_file, capsys):
    code = main(["chase", constraint_file(TERMINATING),
                 "--instance", instance_file])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("status: terminated")
    assert "E(a, b)" in out


def test_chase_budget_exit_code(constraint_file, instance_file, capsys):
    code = main(["chase", constraint_file(DIVERGENT),
                 "--instance", instance_file, "--max-steps", "20"])
    assert code == 1
    assert "exceeded_budget (20 steps)" in capsys.readouterr().out


def test_chase_with_monitor(constraint_file, instance_file, capsys):
    code = main(["chase", constraint_file(DIVERGENT),
                 "--instance", instance_file, "--cycle-limit", "3",
                 "--max-steps", "100000"])
    assert code == 1
    assert "aborted_by_monitor" in capsys.readouterr().out


# ----------------------------------------------------------------------
# graph
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["dep", "prop", "chase", "cchase"])
def test_graph_kinds_emit_dot(constraint_file, capsys, kind):
    code = main(["graph", constraint_file(TERMINATING), "--kind", kind])
    assert code == 0
    assert "digraph" in capsys.readouterr().out


# ----------------------------------------------------------------------
# optimize
# ----------------------------------------------------------------------
def test_optimize_emits_universal_plan(constraint_file, capsys):
    code = main(["optimize", constraint_file("E(x, y) -> S(y)"),
                 "--query", "q(x) <- E(x, y), S(y)"])
    assert code == 0
    assert "universal plan:" in capsys.readouterr().out


def test_optimize_refuses_divergent_sets(constraint_file, capsys):
    code = main(["optimize", constraint_file(DIVERGENT),
                 "--query", "q(x) <- S(x)"])
    assert code == 1
    assert "refused:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# batch
# ----------------------------------------------------------------------
@pytest.fixture
def jobs_dir(tmp_path):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "fine.json").write_text(json.dumps({
        "constraints": TERMINATING, "instance": "S(a). S(b)."}))
    (jobs / "capped.json").write_text(json.dumps({
        "constraints": DIVERGENT, "instance": "S(a).",
        "max_steps": 30}))
    return jobs


def test_batch_runs_a_directory(jobs_dir, capsys):
    assert main(["batch", str(jobs_dir), "--workers", "2"]) == 0
    captured = capsys.readouterr()
    assert "capped: exceeded_budget after 30 steps" in captured.out
    assert "fine: terminated" in captured.out
    assert "2 jobs, 2 completed" in captured.err


def test_batch_json_output_and_events(jobs_dir, capsys):
    code = main(["batch", str(jobs_dir), "--workers", "1",
                 "--json", "--events", "--progress-every", "10"])
    assert code == 0
    captured = capsys.readouterr()
    payloads = [json.loads(line) for line in
                captured.out.strip().splitlines()]
    assert [p["job"] for p in payloads] == ["capped", "fine"]
    assert all(p["facts"] for p in payloads)
    assert "[queued] fine" in captured.err
    assert "[finished] capped" in captured.err
    # --progress-every surfaces the per-step stream (30-step job).
    assert "[progress] capped" in captured.err


def test_batch_single_file_and_empty_dir(tmp_path, jobs_dir, capsys):
    assert main(["batch", str(jobs_dir / "fine.json")]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["batch", str(empty)]) == 2
    assert "no *.json job files" in capsys.readouterr().err


def test_batch_exit_code_reflects_failures(tmp_path, capsys):
    jobs = tmp_path / "jobs"
    jobs.mkdir()
    (jobs / "bad.json").write_text(json.dumps({
        "constraints": TERMINATING, "instance": "S(a).",
        "strategy": "bogus"}))
    assert main(["batch", str(jobs)]) == 1
    assert "1 killed/errored" in capsys.readouterr().err


def test_batch_16_mixed_jobs_match_inprocess_execution(tmp_path, capsys):
    """The acceptance scenario, end to end through the CLI: 16 mixed
    workload-family job files, 2 workers, results identical to plain
    sequential in-process execution."""
    from repro.service import ChaseJob, execute_job
    from repro.workloads.batch import mixed_batch_specs
    jobs = tmp_path / "jobs16"
    jobs.mkdir()
    specs = mixed_batch_specs(16, seed=9)
    for index, spec in enumerate(specs):
        (jobs / f"{index:02d}.json").write_text(json.dumps(spec))
    expected = {spec["name"]: execute_job(ChaseJob.from_dict(spec))
                for spec in specs}
    assert main(["batch", str(jobs), "--workers", "2", "--json"]) == 0
    payloads = [json.loads(line) for line in
                capsys.readouterr().out.strip().splitlines()]
    assert [p["job"] for p in payloads] == [s["name"] for s in specs]
    for payload in payloads:
        reference = expected[payload["job"]]
        assert payload["status"] == reference.status
        assert payload["steps"] == reference.steps
        assert payload["facts"] == reference.facts


def test_batch_example_jobs_ship_and_run(capsys):
    from pathlib import Path
    jobs = Path(__file__).resolve().parents[2] / "examples" / "jobs"
    assert main(["batch", str(jobs), "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "divergent_guarded: aborted_by_monitor" in out


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
QUERY_SPEC = {"constraints": TERMINATING, "instance": "E(a, b). S(a).",
              "query": "q(x) <- S(x), E(x, y)"}


def test_query_spec_file(tmp_path, capsys):
    spec = tmp_path / "q.json"
    spec.write_text(json.dumps(QUERY_SPEC))
    assert main(["query", str(spec)]) == 0
    captured = capsys.readouterr()
    assert "q: terminated" in captured.out
    assert "(a)" in captured.out
    assert "1 completed" in captured.err


def test_query_inline_constraints(constraint_file, instance_file, capsys):
    code = main(["query", constraint_file(TERMINATING),
                 "--instance", instance_file,
                 "--query", "q(x, y) <- E(x, y)"])
    assert code == 0
    out = capsys.readouterr().out
    assert "(a, b)" in out and "evaluated:" in out


def test_query_inline_requires_instance_and_query(constraint_file, capsys):
    assert main(["query", constraint_file(TERMINATING)]) == 2
    assert "--instance and --query" in capsys.readouterr().err


def test_query_rejects_chase_specs(jobs_dir, capsys):
    assert main(["query", str(jobs_dir)]) == 2
    assert "not query-job specs" in capsys.readouterr().err


def test_query_json_output_and_truncation(tmp_path, capsys):
    spec = tmp_path / "divergent.json"
    spec.write_text(json.dumps({
        "constraints": DIVERGENT, "instance": "S(a). E(a, b). S(b).",
        "query": "q(u) <- S(u), E(u, v)", "max_steps": 150}))
    assert main(["query", str(spec), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["status"] == "exceeded_budget"
    assert payload["truncated"] is True
    assert payload["answers"] == [[["c", "a"]], [["c", "b"]]]


def test_query_example_specs_ship_and_run(capsys):
    """The acceptance smoke: the shipped examples/queries specs run
    end to end (also exercised by `make test-service` in CI)."""
    from pathlib import Path
    queries = Path(__file__).resolve().parents[2] / "examples" / "queries"
    assert main(["query", str(queries), "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "stratified_only: terminated" in out
    assert "depth_bounded_guarded: exceeded_budget" in out
    assert "truncated-prefix answers" in out


def test_batch_accepts_query_specs(tmp_path, capsys):
    """Query specs ride along in a plain batch directory."""
    jobs = tmp_path / "mixed"
    jobs.mkdir()
    (jobs / "a_chase.json").write_text(json.dumps({
        "constraints": TERMINATING, "instance": "S(a). S(b)."}))
    (jobs / "b_query.json").write_text(json.dumps(QUERY_SPEC))
    assert main(["batch", str(jobs)]) == 0
    out = capsys.readouterr().out
    assert "a_chase: terminated" in out
    assert "b_query: terminated" in out and "answers" in out


def test_serve_answers_query_requests(monkeypatch, capsys):
    request = json.dumps(dict(QUERY_SPEC, name="r1"))
    replies = serve_lines(monkeypatch, capsys, [request, request, "quit"])
    assert len(replies) == 2
    assert replies[0]["answers"] == [[["c", "a"]]]
    assert replies[1]["cached"] is True
    assert replies[1]["answers"] == replies[0]["answers"]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_lines(monkeypatch, capsys, lines, argv=()):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["serve", *argv]) == 0
    return [json.loads(line) for line in
            capsys.readouterr().out.strip().splitlines()]


def test_serve_answers_jobs_line_by_line(monkeypatch, capsys):
    request = json.dumps({"name": "r1", "constraints": TERMINATING,
                          "instance": "S(a)."})
    replies = serve_lines(monkeypatch, capsys,
                          [request, "", request, "quit"])
    assert len(replies) == 2
    assert replies[0]["status"] == "terminated"
    assert replies[0]["cached"] is False
    # Same fingerprint on the second request: served from cache.
    assert replies[1]["cached"] is True
    assert replies[1]["facts"] == replies[0]["facts"]


def test_serve_reports_bad_requests_inline(monkeypatch, capsys):
    replies = serve_lines(monkeypatch, capsys, [
        '{"constraints": "S(x) ->"}',            # parse error
        "not json",                              # not even JSON
        '{"constraints": 5, "instance": "S(a)."}',      # wrong type
        '{"constraints": "S(x) -> T(x)", "instance": {}}',  # bad wire
        json.dumps({"constraints": TERMINATING,  # service still alive
                    "instance": "S(a)."}),
    ])
    assert len(replies) == 5
    assert [reply["status"] for reply in replies] \
        == ["error"] * 4 + ["terminated"]


# ----------------------------------------------------------------------
# observability: --metrics / --trace / stats
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_registry():
    from repro.obs import metrics
    metrics.reset()
    return metrics


def test_chase_metrics_and_trace(constraint_file, instance_file, capsys,
                                 tmp_path, fresh_registry):
    snap_file = tmp_path / "snap.json"
    trace_file = tmp_path / "trace.ndjson"
    code = main(["chase", constraint_file(TERMINATING),
                 "--instance", instance_file,
                 "--metrics", "--metrics-json", str(snap_file),
                 "--trace", str(trace_file)])
    assert code == 0
    err = capsys.readouterr().err
    assert "chase.runs 1" in err
    snap = json.loads(snap_file.read_text())
    assert snap["counters"]["chase.runs"] == 1
    assert snap["counters"]["chase.steps"] >= 1
    # One record per span; each line is a self-contained JSON object.
    records = [json.loads(line) for line in
               trace_file.read_text().splitlines()]
    assert {r["name"] for r in records} >= {"chase", "step"}
    # The flags are per-invocation: the registry is disabled again.
    assert not fresh_registry.enabled()


def test_chase_trace_sampling_thins_step_spans(constraint_file,
                                               instance_file, tmp_path,
                                               capsys, fresh_registry):
    def spans_with_sample(n):
        trace_file = tmp_path / f"trace{n}.ndjson"
        assert main(["chase", constraint_file(TERMINATING),
                     "--instance", instance_file,
                     "--trace", str(trace_file),
                     "--trace-sample", str(n)]) == 0
        capsys.readouterr()
        return [json.loads(line)["name"] for line in
                trace_file.read_text().splitlines()]
    full = spans_with_sample(1)
    thinned = spans_with_sample(1000)
    # Sampling drops step-granularity spans, never the run span.
    assert "chase" in thinned
    assert full.count("step") > thinned.count("step") or \
        full.count("step") <= 1


def test_batch_metrics_aggregate_across_workers(jobs_dir, capsys,
                                                tmp_path,
                                                fresh_registry):
    snap_file = tmp_path / "snap.json"
    trace_file = tmp_path / "trace.ndjson"
    assert main(["batch", str(jobs_dir), "--workers", "2",
                 "--metrics-json", str(snap_file),
                 "--trace", str(trace_file)]) == 0
    capsys.readouterr()
    snap = json.loads(snap_file.read_text())
    # Fleet-wide totals: both worker processes' runs are merged.
    assert snap["counters"]["chase.runs"] == 2
    assert snap["counters"]["pool.jobs_dispatched"] == 2
    assert snap["histograms"]["chase.steps_per_run"]["count"] == 2
    # The worker traces replayed into the parent's NDJSON file.
    records = [json.loads(line) for line in
               trace_file.read_text().splitlines()]
    assert {r["name"] for r in records} >= {"job", "chase"}
    assert len({r["trace"] for r in records}) == 2


def test_batch_events_carry_fingerprint_and_timestamp(jobs_dir,
                                                      capsys):
    assert main(["batch", str(jobs_dir), "--workers", "1",
                 "--events"]) == 0
    err = capsys.readouterr().err
    started = [line for line in err.splitlines()
               if line.startswith("[started]")]
    assert started
    assert all(" fp=" in line and " t=" in line for line in started)


def test_serve_stats_request(monkeypatch, capsys, fresh_registry):
    request = json.dumps({"name": "s1", "constraints": TERMINATING,
                          "instance": "S(a)."})
    replies = serve_lines(monkeypatch, capsys,
                          [request, '{"kind": "stats"}', "quit"],
                          argv=["--metrics"])
    assert len(replies) == 2
    stats = replies[1]
    assert stats["kind"] == "stats"
    assert stats["metrics"]["counters"]["chase.runs"] == 1
    assert stats["cache"]["results"]["misses"] == 1


def test_stats_renders_snapshot_file(tmp_path, capsys):
    snap_file = tmp_path / "snap.json"
    snap_file.write_text(json.dumps(
        {"counters": {"chase.runs": 3}, "gauges": {},
         "histograms": {}}))
    assert main(["stats", str(snap_file)]) == 0
    assert "chase.runs 3" in capsys.readouterr().out
    assert main(["stats", str(snap_file), "--prometheus"]) == 0
    assert "repro_chase_runs 3" in capsys.readouterr().out


def test_stats_reads_a_serve_reply_stream(tmp_path, monkeypatch,
                                          capsys):
    stream = tmp_path / "serve.out"
    stream.write_text(
        json.dumps({"status": "terminated", "facts": 2}) + "\n"
        + json.dumps({"kind": "stats",
                      "metrics": {"counters": {"chase.runs": 5}},
                      "cache": {}}) + "\n")
    assert main(["stats", str(stream)]) == 0
    assert "chase.runs 5" in capsys.readouterr().out
    # "-" reads stdin, the piping form.
    monkeypatch.setattr("sys.stdin", io.StringIO(
        stream.read_text()))
    assert main(["stats", "-"]) == 0
    assert "chase.runs 5" in capsys.readouterr().out


def test_stats_rejects_non_snapshots(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert main(["stats", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
