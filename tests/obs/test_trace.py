"""The tracer: span nesting, sampling, NDJSON output, the checker."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

from repro.chase import chase
from repro.lang.parser import parse_constraints, parse_instance
from repro.obs import trace
from repro.obs.trace import (ndjson_writer, NO_TRACE, Tracer, tracing)

_REPO = Path(__file__).resolve().parents[2]


def load_check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", _REPO / "tools" / "check_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def collecting_tracer(**kwargs):
    records = []
    return Tracer(records.append, **kwargs), records


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestSpans:
    def test_nesting_gives_parentage(self):
        tracer, records = collecting_tracer()
        outer = tracer.start("job")
        inner = tracer.start("chase")
        tracer.finish(inner)
        tracer.finish(outer)
        assert [r["name"] for r in records] == ["chase", "job"]
        chase_rec, job_rec = records
        assert job_rec["parent"] is None
        assert chase_rec["parent"] == job_rec["span"]

    def test_records_are_emitted_child_first(self):
        tracer, records = collecting_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [r["name"] for r in records] == ["b", "a"]

    def test_finish_pops_abandoned_younger_spans(self):
        tracer, records = collecting_tracer()
        outer = tracer.start("outer")
        tracer.start("abandoned")
        tracer.finish(outer)
        # The abandoned span is dropped unemitted; the stack is clean.
        assert [r["name"] for r in records] == ["outer"]
        follow = tracer.start("next")
        assert follow.parent is None

    def test_duration_from_injected_clock(self):
        tracer, records = collecting_tracer(clock=FakeClock())
        span = tracer.start("x")
        tracer.finish(span)
        assert records[0]["ts"] == 101.0
        assert records[0]["dur"] == 1.0

    def test_finish_merges_close_time_attrs(self):
        tracer, records = collecting_tracer()
        span = tracer.start("x", a=1)
        tracer.finish(span, b=2)
        assert records[0]["attrs"] == {"a": 1, "b": 2}

    def test_span_ids_are_unique_and_pid_scoped(self):
        tracer, records = collecting_tracer()
        for _ in range(3):
            tracer.finish(tracer.start("x"))
        ids = [r["span"] for r in records]
        assert len(set(ids)) == 3
        assert all("-" in span_id for span_id in ids)


class TestTraceIdentity:
    def test_default_trace_id(self):
        tracer, records = collecting_tracer()
        tracer.finish(tracer.start("x"))
        assert records[0]["trace"] == NO_TRACE

    def test_trace_context_nests_and_restores(self):
        tracer, records = collecting_tracer()
        with tracer.trace_context("job-1"):
            tracer.finish(tracer.start("a"))
            with tracer.trace_context("job-2"):
                tracer.finish(tracer.start("b"))
            tracer.finish(tracer.start("c"))
        tracer.finish(tracer.start("d"))
        assert [r["trace"] for r in records] \
            == ["job-1", "job-2", "job-1", NO_TRACE]


class TestSampling:
    def test_sample_rate_one_records_everything(self):
        tracer, _ = collecting_tracer()
        assert all(tracer.sampled(i) for i in range(5))

    def test_sample_rate_n_keeps_every_nth(self):
        tracer, _ = collecting_tracer(sample=3)
        kept = [i for i in range(9) if tracer.sampled(i)]
        assert kept == [0, 3, 6]

    def test_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(lambda record: None, sample=0)


class TestActiveTracer:
    def test_set_and_restore(self):
        tracer, _ = collecting_tracer()
        assert trace.active() is None
        previous = trace.set_tracer(tracer)
        assert previous is None
        assert trace.active() is tracer
        trace.set_tracer(previous)
        assert trace.active() is None

    def test_tracing_context_manager(self):
        tracer, _ = collecting_tracer()
        with tracing(tracer):
            assert trace.active() is tracer
        assert trace.active() is None


class TestNdjsonAndChecker:
    def write_sample_trace(self):
        handle = io.StringIO()
        tracer = Tracer(ndjson_writer(handle))
        with tracer.trace_context("fp-1"):
            with tracer.span("job"):
                with tracer.span("chase"):
                    with tracer.span("step", index=0):
                        pass
        return handle.getvalue()

    def test_ndjson_lines_parse(self):
        lines = self.write_sample_trace().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["trace"] == "fp-1"
            assert record["dur"] >= 0

    def test_check_trace_accepts_real_output(self, tmp_path):
        check_trace = load_check_trace()
        path = tmp_path / "trace.ndjson"
        path.write_text(self.write_sample_trace())
        assert check_trace.main([str(path)]) == 0

    def test_check_trace_rejects_garbage(self, tmp_path, capsys):
        check_trace = load_check_trace()
        path = tmp_path / "bad.ndjson"
        path.write_text('{"trace": "t", "span": "s"}\nnot json\n')
        assert check_trace.main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "missing fields" in err
        assert "not JSON" in err

    def test_check_trace_rejects_duplicate_spans(self, tmp_path):
        check_trace = load_check_trace()
        record = {"trace": "t", "span": "1-1", "parent": None,
                  "name": "x", "ts": 0.0, "dur": 0.0, "attrs": {}}
        path = tmp_path / "dup.ndjson"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps(record) + "\n")
        assert check_trace.main([str(path)]) == 1

    def test_check_trace_rejects_dangling_parent(self, tmp_path):
        check_trace = load_check_trace()
        record = {"trace": "t", "span": "1-2", "parent": "1-99",
                  "name": "x", "ts": 0.0, "dur": 0.0, "attrs": {}}
        path = tmp_path / "orphan.ndjson"
        path.write_text(json.dumps(record) + "\n")
        assert check_trace.main([str(path)]) == 1

    @pytest.mark.parametrize("sigma,instance,budgets", [
        ("a: S(x) -> T(x)", "S(a).", {}),
        ("a: S(x) -> E(x, y), S(y)", "S(a).", {"max_steps": 3}),
        ("a: S(x) -> E(x, y), S(y)", "S(a).", {"max_facts": 4}),
        ("e: E(x, y), E(x, z) -> y = z", "E(a, b). E(a, c).", {}),
    ], ids=["terminated", "step_cap", "fact_budget", "egd_failure"])
    def test_check_trace_accepts_every_chase_outcome(self, tmp_path, sigma,
                                                     instance, budgets):
        """However a run ends, the step span its last selection opened
        is written, so no search span names a parent never written."""
        handle = io.StringIO()
        with tracing(Tracer(ndjson_writer(handle))):
            chase(parse_instance(instance), parse_constraints(sigma),
                  **budgets)
        path = tmp_path / "chase.ndjson"
        path.write_text(handle.getvalue())
        assert load_check_trace().main([str(path)]) == 0

    def test_check_trace_min_spans(self, tmp_path):
        check_trace = load_check_trace()
        path = tmp_path / "empty.ndjson"
        path.write_text("")
        assert check_trace.main([str(path)]) == 1
        assert check_trace.main([str(path), "--min-spans", "0"]) == 0
