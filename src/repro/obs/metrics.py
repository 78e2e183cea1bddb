"""The process-wide metrics registry (counters, gauges, histograms).

One module-level :class:`Registry` instance, :data:`OBS`, serves the
whole process.  The contract with instrumented call sites is what
keeps the disabled path truly free:

* every hot site guards itself with ``if OBS.enabled:`` before calling
  :meth:`Registry.inc` / :meth:`Registry.observe` -- when disabled the
  per-site cost is one attribute load and a falsy branch, and the
  registry's dicts are **never touched** (the no-op fast-path test
  asserts they stay empty);
* the methods themselves do *not* re-check ``enabled``, so tests can
  drive a private :class:`Registry` directly.

Writes, snapshots and merges hold one per-registry lock: the HTTP
gateway's event-loop and executor threads record into :data:`OBS`
concurrently, and an unguarded read-modify-write loses updates.  The
lock is taken only inside the methods, so the disabled path never
touches it, and a forked worker's :data:`OBS` gets a fresh one.

Metric names are flat dotted strings (``chase.steps``,
``plan.order_cache.hits``); there are no labels.  Counters are
monotonic ints, gauges are last-write-wins floats, histograms keep
``count / sum / min / max`` -- enough for throughput and latency
accounting without per-sample storage.

Snapshots (:func:`snapshot`) are plain JSON-able dicts and merge
associatively (:func:`merge` / :meth:`Registry.merge_snapshot`): the
worker pool ships per-job snapshots over its result pipe and the
scheduler folds them into the parent registry, so ``repro batch``
reports fleet-wide totals no matter which process did the work.

``REPRO_OBS`` enables the registry at import time (unset, empty,
``0``, ``false``, ``off`` and ``no`` mean disabled -- the default);
the ``--metrics`` CLI flags enable it per invocation.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional

#: Environment switch; anything except 0/false/off/no/empty enables.
OBS_ENV_VAR = "REPRO_OBS"

_DISABLED_VALUES = frozenset(("", "0", "false", "off", "no"))


def _env_enabled(environ=os.environ) -> bool:
    return environ.get(OBS_ENV_VAR, "").strip().lower() \
        not in _DISABLED_VALUES


class Registry:
    """Counters, gauges and histograms under flat dotted names.

    ``enabled`` is public state consulted by every instrumented call
    site (see module docstring); flipping it never clears the data.
    """

    __slots__ = ("enabled", "counters", "gauges", "_hist", "_lock")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        # name -> [count, sum, min, max]
        self._hist: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` (last write wins)."""
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        with self._lock:
            entry = self._hist.get(name)
            if entry is None:
                self._hist[name] = [1, value, value, value]
                return
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-able copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {
                    name: {"count": entry[0], "sum": entry[1],
                           "min": entry[2], "max": entry[3]}
                    for name, entry in self._hist.items()},
            }

    def merge_snapshot(self, snap: Optional[dict]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram counts/sums add, histogram min/max
        widen, gauges take the incoming value (last write wins --
        gauges are point-in-time readings, not totals).  ``None`` and
        empty snapshots are accepted and ignored, so callers can merge
        ``result.metrics`` unconditionally.
        """
        if not snap:
            return
        with self._lock:
            for name, amount in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + amount
            for name, value in snap.get("gauges", {}).items():
                self.gauges[name] = value
            for name, incoming in snap.get("histograms", {}).items():
                entry = self._hist.get(name)
                if entry is None:
                    self._hist[name] = [incoming["count"], incoming["sum"],
                                        incoming["min"], incoming["max"]]
                    continue
                entry[0] += incoming["count"]
                entry[1] += incoming["sum"]
                if incoming["min"] < entry[2]:
                    entry[2] = incoming["min"]
                if incoming["max"] > entry[3]:
                    entry[3] = incoming["max"]

    def clear(self) -> None:
        """Drop all recorded data (``enabled`` is untouched)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self._hist.clear()

    def empty(self) -> bool:
        """Has nothing ever been recorded?  (The no-op fast-path
        invariant: a disabled run leaves the registry empty.)"""
        return not (self.counters or self.gauges or self._hist)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Registry(enabled={self.enabled}, "
                f"{len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, {len(self._hist)} histograms)")


#: The process-wide registry every instrumented call site consults.
OBS = Registry(enabled=_env_enabled())


def _fresh_lock_after_fork() -> None:
    """A lock another parent thread held at the fork would stay held
    in the child forever; the child's registry gets a released one."""
    OBS._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_lock_after_fork)


# ----------------------------------------------------------------------
# Module-level convenience API over the global registry
# ----------------------------------------------------------------------
def enable(on: bool = True) -> None:
    """Turn the global registry on (or off)."""
    OBS.enabled = on


def enabled() -> bool:
    return OBS.enabled


def snapshot() -> dict:
    return OBS.snapshot()


def merge(snap: Optional[dict]) -> None:
    OBS.merge_snapshot(snap)


def reset() -> None:
    OBS.clear()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_text(snap: dict) -> str:
    """A human-readable, sorted ``name value`` listing of a snapshot
    (the ``--metrics`` stderr report and ``repro stats`` output)."""
    lines: List[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        lines.append(f"{name} {value}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        lines.append(f"{name} {value:g}")
    for name, entry in sorted(snap.get("histograms", {}).items()):
        count = entry["count"]
        mean = entry["sum"] / count if count else 0.0
        lines.append(f"{name} count={count} sum={entry['sum']:g} "
                     f"min={entry['min']:g} max={entry['max']:g} "
                     f"mean={mean:g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _prom_name(name: str) -> str:
    """Prometheus metric name: ``repro_`` prefix, dots to underscores,
    anything outside ``[a-zA-Z0-9_]`` folded to ``_``."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    return f"repro_{cleaned}"


def render_prometheus(snap: dict) -> str:
    """Prometheus text exposition of a snapshot.

    Counters become ``counter`` samples, gauges ``gauge`` samples,
    histograms ``summary`` pairs (``_count`` / ``_sum``) plus
    ``_min`` / ``_max`` gauges -- the shape a future HTTP front-end
    can serve from ``/metrics`` verbatim.
    """
    lines: List[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, entry in sorted(snap.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} summary")
        lines.append(f"{prom}_count {entry['count']}")
        lines.append(f"{prom}_sum {entry['sum']}")
        lines.append(f"# TYPE {prom}_min gauge")
        lines.append(f"{prom}_min {entry['min']}")
        lines.append(f"# TYPE {prom}_max gauge")
        lines.append(f"{prom}_max {entry['max']}")
    return "\n".join(lines) + ("\n" if lines else "")
