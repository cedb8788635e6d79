"""Instrumentation the e2e benchmark installs inside each unit process.

Nothing under ``src/`` knows about it: :class:`Probe` wraps public entry
points at class level *before* any world is built, so every engine,
medium and device a workload creates afterwards (forked pool and tile
workers included) calls through the wrappers.

Two layers of instrumentation:

* **Always on** (``traced=False``): ``Engine.run_until``/``Engine.run``
  record the first entry time (the end of set-up) and, after each call,
  the engine's exact event tallies and simulated time.  This is a few
  attribute reads per ``run_until`` call, so untraced timings stay honest.
* **Traced** (``traced=True``): spans around the layer boundaries listed
  in :data:`SPANS`.  Each span folds into per-name ``[count, total,
  self]`` totals as it closes, where self time is the span's duration
  minus the time its child spans cover.  Raw spans are not kept: a
  census unit closes hundreds of thousands of them.

Forked children reset the inherited state and, whenever their outermost
span (or ``run_until`` call) closes, rewrite ``proc-<pid>.json`` in the
flush directory with their running totals.  Pool workers are terminated
once their results are collected, so a flush at every root exit is the
only point that is guaranteed to have happened.  :meth:`Probe.collect`
merges the parent's own state with every child file.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Registry counters read from each engine's ``MetricsRegistry`` in traced
#: mode (``engine.metrics`` is the run's registry; every workload has one).
REGISTRY_COUNTERS = (
    "medium.frames.delivered",
    "medium.frames.dropped",
    "ack.acks_sent",
)


def _targets(traced: bool):
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Untraced units import nothing beyond the engine, so the probe adds no
    import time to the set-up it measures.
    """
    from repro.sim.engine import Engine

    targets = [(Engine, "run_until", "engine"), (Engine, "run", "engine")]
    if not traced:
        return targets
    import repro.sim.partition as partition
    import repro.survey.city as city
    from repro.core.probe import PoliteWiFiProbe
    from repro.devices.access_point import AccessPoint
    from repro.devices.station import Station
    from repro.phy.radio import Radio
    from repro.sim.engine import EventBatch
    from repro.sim.medium import Medium

    return targets + [
        (Medium, "transmit", "transmit"),
        # Arrival drains: the lane fast path runs inside these calls.
        (EventBatch, "__call__", "deliver"),
        # The scalar receive path (arrivals no fast lane consumed).
        (Radio, "on_reception", "scalar_rx"),
        (Medium, "attach", "attach"),
        (Medium, "detach", "attach"),
        # partition imported generate_specs by name; patch both bindings.
        (city, "generate_specs", "generate"),
        (partition, "generate_specs", "generate"),
        (AccessPoint, "__init__", "device"),
        (Station, "__init__", "device"),
        (PoliteWiFiProbe, "probe_async", "probe"),
    ]


#: Span names, in report order.
SPANS = ("engine", "transmit", "deliver", "scalar_rx", "attach", "generate", "device", "probe")


class Probe:
    """Per-process measurement state plus the class-level wrappers."""

    def __init__(self, flush_dir: Path, traced: bool) -> None:
        self.flush_dir = Path(flush_dir)
        self.traced = traced
        self.in_child = False
        self.first_entry: Optional[float] = None
        self.root_s = 0.0
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.engine_records: List[Dict[str, float]] = []
        self._engines: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.medium_records: List[List[int]] = []
        self._mediums: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.city_records: List[List[int]] = []
        self._cities: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._originals: List[tuple] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> "Probe":
        wrapped = {}
        for owner, attr, name in _targets(self.traced):
            original = getattr(owner, attr)
            fn = wrapped.get(original)
            if fn is None:
                fn = original
                if name == "engine":
                    fn = self._engine_hook(fn)
                if self.traced:
                    fn = self._span(name, fn)
                wrapped[original] = fn
            self._patch(owner, attr, fn)
        if self.traced:
            from repro.sim.medium import Medium
            from repro.survey.city import SyntheticCity

            # Remember every medium and city, to read their public tallies
            # (link-cache hits/misses, activations) while they are alive.
            self._patch(Medium, "attach", self._register(
                Medium.attach, self._mediums, self.medium_records, 2))
            self._patch(SyntheticCity, "start", self._register(
                SyntheticCity.start, self._cities, self.city_records, 1))
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr: str, fn: Callable) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def _after_fork(self) -> None:
        """A forked child starts from empty totals: the parent's are the
        parent's to report."""
        self.in_child = True
        self.first_entry = None
        self.root_s = 0.0
        self.stack.clear()
        for total in self.totals.values():
            total[:] = [0, 0.0, 0.0]
        self.engine_records.clear()
        self._engines.clear()
        self.medium_records.clear()
        self._mediums.clear()
        self.city_records.clear()
        self._cities.clear()

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _engine_hook(self, fn: Callable) -> Callable:
        probe = self
        flush = not self.traced  # traced runs flush when the span closes

        @functools.wraps(fn)
        def run(engine, *args, **kwargs):
            if probe.first_entry is None:
                probe.first_entry = time.monotonic()
            try:
                return fn(engine, *args, **kwargs)
            finally:
                probe._note_engine(engine)
                if flush and probe.in_child:
                    probe.flush()

        return run

    def _span(self, name: str, fn: Callable) -> Callable:
        probe = self
        stack = self.stack
        total = self.totals[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    probe.root_s += duration
                    if probe.in_child:
                        probe.flush()

        return span

    @staticmethod
    def _register(fn: Callable, live, records: List[list], width: int) -> Callable:
        """Remember each instance ``fn`` is called on, for :meth:`_refresh`."""

        @functools.wraps(fn)
        def register(obj, *args, **kwargs):
            if obj not in live:
                live[obj] = record = [0] * width
                records.append(record)
            return fn(obj, *args, **kwargs)

        return register

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def _note_engine(self, engine) -> None:
        record = self._engines.get(engine)
        if record is None:
            record = self._engines[engine] = {}
            self.engine_records.append(record)
        record["sim_s"] = engine.now
        record["events"] = engine.events_processed
        record["scheduled"] = engine.events_scheduled
        record["cancelled"] = engine.events_cancelled
        if self.traced and engine.metrics is not None:
            counters = engine.metrics.snapshot()["counters"]
            for key in REGISTRY_COUNTERS:
                record[key] = counters.get(key, 0)

    def _refresh(self) -> None:
        for medium, record in self._mediums.items():
            record[0] = medium.link_cache_hits
            record[1] = medium.link_cache_misses
        for city, record in self._cities.items():
            record[0] = city.activations

    def state(self) -> Dict[str, object]:
        """This process's measurements as a JSON-safe dict."""
        self._refresh()
        return {
            "first_entry": self.first_entry,
            "root_s": self.root_s,
            "spans": {name: list(total) for name, total in self.totals.items()},
            "engines": [dict(record) for record in self.engine_records],
            "link_cache": [list(record) for record in self.medium_records],
            "activations": [record[0] for record in self.city_records],
        }

    def flush(self) -> None:
        """Rewrite this (child) process's totals file."""
        path = self.flush_dir / f"proc-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.state()), encoding="utf-8")
        os.replace(tmp, path)

    def collect(self) -> Dict[str, object]:
        """Merge this process's state with every child's flushed file."""
        states = [self.state()]
        for path in sorted(self.flush_dir.glob("proc-*.json")):
            states.append(json.loads(path.read_text(encoding="utf-8")))
        entries = [s["first_entry"] for s in states if s["first_entry"] is not None]
        spans = {name: [0, 0.0, 0.0] for name in SPANS}
        for s in states:
            for name, (count, total, self_s) in s["spans"].items():
                merged = spans[name]
                merged[0] += count
                merged[1] += total
                merged[2] += self_s
        return {
            "first_entry": min(entries) if entries else None,
            "processes": len(states),
            "root_s": sum(s["root_s"] for s in states),
            "spans": spans,
            "engines": [e for s in states for e in s["engines"]],
            "link_cache": [
                sum(r[0] for s in states for r in s["link_cache"]),
                sum(r[1] for s in states for r in s["link_cache"]),
            ],
            "activations": sum(a for s in states for a in s["activations"]),
        }
