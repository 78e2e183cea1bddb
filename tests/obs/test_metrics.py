"""The metrics registry: recording, snapshots, merging, rendering."""

import json
import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (_env_enabled, _prom_name, Registry,
                               render_prometheus, render_text)


class TestRegistry:
    def test_counters_accumulate(self):
        reg = Registry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 2)
        assert reg.counters == {"a": 5, "b": 2}

    def test_gauges_last_write_wins(self):
        reg = Registry()
        reg.gauge("depth", 3.0)
        reg.gauge("depth", 1.5)
        assert reg.gauges == {"depth": 1.5}

    def test_histograms_track_count_sum_min_max(self):
        reg = Registry()
        for value in (5.0, 1.0, 3.0):
            reg.observe("lat", value)
        snap = reg.snapshot()
        assert snap["histograms"]["lat"] == {
            "count": 3, "sum": 9.0, "min": 1.0, "max": 5.0}

    def test_empty_and_clear(self):
        reg = Registry()
        assert reg.empty()
        reg.inc("a")
        assert not reg.empty()
        reg.clear()
        assert reg.empty()

    def test_clear_preserves_enabled(self):
        reg = Registry(enabled=True)
        reg.clear()
        assert reg.enabled

    def test_snapshot_is_a_copy(self):
        reg = Registry()
        reg.inc("a")
        snap = reg.snapshot()
        reg.inc("a")
        assert snap["counters"]["a"] == 1

    def test_snapshot_is_json_safe(self):
        reg = Registry()
        reg.inc("a")
        reg.gauge("g", 2.5)
        reg.observe("h", 1.0)
        assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()


class TestThreads:
    """The gateway's event-loop and executor threads share one
    registry; a read-modify-write without the lock loses updates."""

    @staticmethod
    def run_concurrently(*targets):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=target)
                       for target in targets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)

    def test_two_threads_lose_no_increments(self):
        reg = Registry()

        def count():
            for _ in range(200_000):
                reg.inc("x")
        self.run_concurrently(count, count)
        assert reg.counters["x"] == 400_000

    def test_snapshots_and_merges_race_with_writers(self):
        reg = Registry()
        errors = []

        def write():
            for index in range(20_000):
                reg.observe(f"h{index}", float(index))
                reg.merge_snapshot({"counters": {f"c{index % 500}": 1}})

        def read():
            try:
                for _ in range(200):
                    reg.snapshot()
            except RuntimeError as exc:     # dict changed size
                errors.append(exc)
        self.run_concurrently(write, read)
        assert errors == []
        snap = reg.snapshot()
        assert sum(snap["counters"].values()) == 20_000
        assert sum(entry["count"]
                   for entry in snap["histograms"].values()) == 20_000


class TestMergeSnapshot:
    def test_merge_is_associative_on_counters_and_histograms(self):
        a, b = Registry(), Registry()
        a.inc("runs", 2)
        a.observe("lat", 1.0)
        b.inc("runs", 3)
        b.inc("other")
        b.observe("lat", 5.0)
        merged = Registry()
        merged.merge_snapshot(a.snapshot())
        merged.merge_snapshot(b.snapshot())
        snap = merged.snapshot()
        assert snap["counters"] == {"runs": 5, "other": 1}
        assert snap["histograms"]["lat"] == {
            "count": 2, "sum": 6.0, "min": 1.0, "max": 5.0}

    def test_merge_gauges_take_incoming_value(self):
        reg = Registry()
        reg.gauge("depth", 9.0)
        other = Registry()
        other.gauge("depth", 2.0)
        reg.merge_snapshot(other.snapshot())
        assert reg.gauges["depth"] == 2.0

    def test_merge_accepts_none_and_empty(self):
        reg = Registry()
        reg.merge_snapshot(None)
        reg.merge_snapshot({})
        assert reg.empty()

    def test_merge_into_empty_registry(self):
        src = Registry()
        src.inc("a")
        src.observe("h", 2.0)
        dst = Registry()
        dst.merge_snapshot(src.snapshot())
        assert dst.snapshot() == src.snapshot()


class TestModuleApi:
    def test_enable_disable_roundtrip(self):
        metrics.enable()
        assert metrics.enabled()
        metrics.enable(False)
        assert not metrics.enabled()

    def test_module_snapshot_and_merge_hit_the_global_registry(self):
        metrics.OBS.inc("x")
        metrics.merge({"counters": {"x": 2}})
        assert metrics.snapshot()["counters"]["x"] == 3
        metrics.reset()
        assert metrics.OBS.empty()

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no",
                                       "False", " OFF "])
    def test_env_disabled_values(self, value):
        assert not _env_enabled({"REPRO_OBS": value})

    @pytest.mark.parametrize("value", ["1", "true", "on", "yes",
                                       "anything"])
    def test_env_enabled_values(self, value):
        assert _env_enabled({"REPRO_OBS": value})

    def test_env_unset_means_disabled(self):
        assert not _env_enabled({})


class TestRendering:
    def test_render_text_sorted_and_complete(self):
        reg = Registry()
        reg.inc("b.count", 2)
        reg.inc("a.count", 1)
        reg.gauge("g", 1.5)
        reg.observe("h", 4.0)
        lines = render_text(reg.snapshot()).splitlines()
        assert lines[0] == "a.count 1"
        assert lines[1] == "b.count 2"
        assert lines[2] == "g 1.5"
        assert lines[3] == "h count=1 sum=4 min=4 max=4 mean=4"

    def test_render_text_empty_snapshot(self):
        assert render_text(Registry().snapshot()) \
            == "(no metrics recorded)"

    def test_prom_name_sanitizes(self):
        assert _prom_name("chase.steps") == "repro_chase_steps"
        assert _prom_name("a-b c") == "repro_a_b_c"

    def test_render_prometheus_shapes(self):
        reg = Registry()
        reg.inc("chase.runs", 3)
        reg.gauge("pool.size", 2)
        reg.observe("lat", 0.5)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE repro_chase_runs counter\nrepro_chase_runs 3" \
            in text
        assert "# TYPE repro_pool_size gauge\nrepro_pool_size 2" in text
        assert "# TYPE repro_lat summary" in text
        assert "repro_lat_count 1" in text
        assert "repro_lat_sum 0.5" in text
        assert "repro_lat_min 0.5" in text
        assert text.endswith("\n")

    def test_render_prometheus_empty(self):
        assert render_prometheus(Registry().snapshot()) == ""
