"""Fault-tolerant campaign runner: fan a scenario out across seeds ×
parameters on one machine's worker pool.

A *campaign* runs one registered scenario many times — once per
(seed, parameter-combination) — optionally across a ``multiprocessing``
pool, and writes a structured **run manifest** capturing everything
needed to reproduce or audit the sweep: scenario name + fingerprint, git
revision, per-run seed/params/spec/metrics/duration, and a
deterministic aggregate.

Scenarios come from :data:`repro.scenario.REGISTRY` — the declarative
scenario layer (see ``docs/scenarios.md``).  Each run derives the
scenario's template :class:`~repro.scenario.spec.ScenarioSpec` with its
own seed and parameters, builds a quiet
:class:`~repro.scenario.context.SimContext` around the run's private
:class:`~repro.telemetry.registry.MetricsRegistry`, and executes the
scenario callable.

Determinism contract
--------------------
Every run's randomness descends from its spec seed (the context's root
RNG, the medium RNG, every derived stream) and every run owns a private
metrics registry.  Workers return plain snapshot dicts; the parent sorts
results by run index and folds them with
:func:`~repro.telemetry.registry.merge_snapshots`, excluding wall-clock
metrics.  The ``aggregate`` section of the manifest is therefore
**byte-identical** for any worker count, and for a campaign killed and
resumed, which the campaign tests assert (1 vs 2 vs 4 workers).

Fault tolerance
---------------
Four failure modes are first-class:

* **a run hangs** — ``run_timeout_s`` arms a per-attempt alarm inside
  the worker; a timed-out attempt raises :class:`RunTimeoutError` and is
  retried like any other failure;
* **a run raises** — each run gets ``retries`` extra attempts (with
  ``retry_backoff_s`` linear backoff between them); an exhausted run is
  either re-raised (``on_error="raise"``) or recorded in the manifest as
  a ``status: "failed"`` run with the error surfaced
  (``on_error="record"``), never swallowed;
* **a worker dies** — the pool hands each worker one run at a time and
  watches every worker's pipe and process sentinel, so a worker killed
  mid-run (SIGKILL, the OOM killer, a segfault) costs the run it held
  one attempt: the run goes to a fresh worker while attempts remain,
  and then follows ``on_error`` with an error naming the run's seed,
  params and the signal;
* **the whole worker box dies** — per-run records stream to an
  append-only JSONL sidecar as runs complete, with periodic
  ``heartbeat`` records so a stalled campaign is distinguishable from a
  slow one; ``--resume`` replays the sidecar (tolerating the torn final
  line a SIGKILL leaves) and re-executes only what is missing.
"""

from __future__ import annotations

import collections
import gc
import itertools
import json
import multiprocessing
import pathlib
import signal
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.scenario.context import SimContext
from repro.scenario.registry import REGISTRY
from repro.telemetry.export import write_manifest
from repro.telemetry.registry import (
    WALL_TIME_MARKER,
    MetricsRegistry,
    merge_snapshots,
)

__all__ = [
    "CampaignConfig",
    "CampaignRunError",
    "RunTimeoutError",
    "SPEC_FIELDS",
    "parse_sidecar_text",
    "run_campaign",
    "sidecar_path",
    "summarize_manifest",
]


class RunTimeoutError(RuntimeError):
    """A single campaign run exceeded its ``run_timeout_s`` budget."""


class CampaignRunError(RuntimeError):
    """A run failed every attempt and the campaign is set to re-raise.

    The message carries the run identity (index, seed, params) and the
    final error, or the signal that killed the run's worker; a pool
    worker sends back just this string.
    """


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass
class CampaignConfig:
    """What to run, how wide to fan out, and how to survive failures.

    ``params`` apply to every run; ``grid`` maps parameter names to value
    lists and expands to the cross product, each combination run once per
    seed.  ``workers=1`` runs inline in the calling process (no pool),
    which is also the reference ordering the parallel path must match.
    """

    scenario: str
    seeds: Sequence[int] = (0,)
    params: Dict[str, object] = field(default_factory=dict)
    grid: Optional[Dict[str, Sequence[object]]] = None
    workers: int = 1
    name: str = ""
    output_path: Optional[Union[str, pathlib.Path]] = None
    #: Reuse results from the JSONL sidecar (or a prior manifest) at
    #: ``output_path``: runs whose (seed, params) already
    #: appear there are not re-executed.  Runs are re-keyed to the
    #: current expansion order, so interrupting and resuming a campaign
    #: converges on the same manifest as one uninterrupted execution
    #: (modulo host wall-clock fields).  Failed prior runs are *not*
    #: reused — resume retries them.
    resume: bool = False
    #: Per-attempt wall-clock budget for one run; ``None`` = unlimited.
    #: Enforced with ``SIGALRM`` inside the executing process (no-op on
    #: platforms without ``signal.setitimer``).
    run_timeout_s: Optional[float] = None
    #: Extra attempts after a run raises (or times out); attempt *k*
    #: sleeps ``retry_backoff_s * k`` before retrying.
    retries: int = 0
    retry_backoff_s: float = 0.0
    #: What to do with a run that fails every attempt: ``"raise"``
    #: aborts the campaign with :class:`CampaignRunError` (the sidecar
    #: still holds every completed run); ``"record"`` keeps going and
    #: writes the run into the manifest with ``status: "failed"`` and
    #: the error surfaced.
    on_error: str = "raise"
    #: Interval between ``heartbeat`` records in the sidecar while runs
    #: are in flight (``None`` = no heartbeats).  A sidecar whose last
    #: heartbeat is stale is a stalled worker; one whose heartbeats are
    #: fresh but whose run count is static is a slow run.
    heartbeat_s: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent knobs (checked before any
        worker forks, so bad configs fail fast and cheap)."""
        if not self.seeds:
            raise ValueError("campaign needs at least one seed")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.run_timeout_s is not None and self.run_timeout_s <= 0:
            raise ValueError(
                f"run_timeout_s must be positive, got {self.run_timeout_s!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s!r}"
            )
        if self.on_error not in ("raise", "record"):
            raise ValueError(
                f"on_error must be 'raise' or 'record', got {self.on_error!r}"
            )
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ValueError(
                f"heartbeat_s must be positive, got {self.heartbeat_s!r}"
            )
        for key, values in (self.grid or {}).items():
            if len(values) == 0:
                raise ValueError(
                    f"grid axis {key!r} has no values, so the campaign "
                    f"would run nothing"
                )

    def expand(self) -> List[Dict[str, object]]:
        """The ordered run plan (index, scenario, seed, params)."""
        self.validate()
        combos: List[Dict[str, object]] = [{}]
        if self.grid:
            keys = sorted(self.grid)
            combos = [
                dict(zip(keys, values))
                for values in itertools.product(*(self.grid[k] for k in keys))
            ]
        payloads = []
        for combo in combos:
            for seed in self.seeds:
                payloads.append(
                    {
                        "index": len(payloads),
                        "scenario": self.scenario,
                        "seed": int(seed),
                        "params": {**self.params, **combo},
                    }
                )
        return payloads

    def run_policy(self) -> Dict[str, object]:
        """The retry/timeout policy shipped to workers (and recorded in
        the manifest)."""
        return {
            "timeout_s": self.run_timeout_s,
            "retries": self.retries,
            "backoff_s": self.retry_backoff_s,
            "on_error": self.on_error,
        }

    @classmethod
    def from_spec_dict(
        cls, spec: Dict[str, object], **overrides: object
    ) -> "CampaignConfig":
        """Build a config from a campaign spec — a ``--spec-file``
        document, or the dict the CLI assembles from its flags.

        Unknown keys raise so a typo cannot silently become a default; a
        value of the wrong type raises ``ValueError`` naming its key; an
        absent or ``null`` key takes the field's default.  ``seeds`` may
        be a count (``3`` -> seeds 0, 1, 2) or a non-empty list of ints,
        as on the command line.  Range checks are :meth:`validate`'s.
        ``overrides`` supplies the per-process knobs (``output_path``,
        ``workers``, ``resume``)."""
        unknown = sorted(set(spec) - set(SPEC_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown campaign spec key(s): {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(SPEC_FIELDS))}"
            )
        kwargs: Dict[str, object] = {}
        for key in SPEC_FIELDS:
            value = spec.get(key)
            if value is None:
                continue
            accepts, convert, expected = _SPEC_TYPES[key]
            if not accepts(value):
                raise ValueError(f"{key!r} must be {expected}, got {value!r}")
            kwargs[key] = convert(value)
        if "scenario" not in kwargs:
            raise ValueError("campaign spec needs a 'scenario'")
        kwargs.update(overrides)
        return cls(**kwargs)


#: The campaign spec: the :class:`CampaignConfig` fields that define
#: *what* runs.  The CLI's campaign flags and ``--spec-file`` documents
#: both speak these keys; the remaining fields are per-process knobs.
SPEC_FIELDS = (
    "scenario", "seeds", "params", "grid", "name",
    "run_timeout_s", "retries", "retry_backoff_s", "on_error", "heartbeat_s",
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_text(value: object) -> bool:
    return isinstance(value, str) and value != ""


#: Per spec key: (accepts the JSON value?, its field value, what it must be).
_SPEC_TYPES: Dict[str, Tuple[Callable, Callable, str]] = {
    "scenario": (_is_text, str, "a scenario name"),
    "seeds": (
        lambda v: (_is_int(v) and v >= 1)
        or (isinstance(v, list) and v != [] and all(map(_is_int, v))),
        lambda v: list(range(v)) if _is_int(v) else list(v),
        "a count >= 1 or a non-empty list of ints",
    ),
    "params": (lambda v: isinstance(v, dict), dict, "an object"),
    "grid": (
        lambda v: isinstance(v, dict)
        and all(isinstance(values, list) for values in v.values()),
        lambda v: {k: list(values) for k, values in v.items()} or None,
        "an object mapping parameter names to value lists",
    ),
    "name": (lambda v: isinstance(v, str), str, "a string"),
    "run_timeout_s": (_is_number, float, "a number of seconds"),
    "retries": (_is_int, int, "an integer"),
    "retry_backoff_s": (_is_number, float, "a number of seconds"),
    "on_error": (_is_text, str, "'raise' or 'record'"),
    "heartbeat_s": (_is_number, float, "a number of seconds"),
}


# ----------------------------------------------------------------------
# Run execution (must stay module-level: workers pickle the payloads,
# not the function's closure)
# ----------------------------------------------------------------------
def _execute_run(payload: Dict[str, object]) -> Dict[str, object]:
    entry = REGISTRY.get(payload["scenario"])  # type: ignore[arg-type]
    metrics = MetricsRegistry()
    spec = entry.build_spec(payload["seed"], payload["params"])  # type: ignore[arg-type]
    ctx = SimContext(spec, metrics=metrics, quiet=True)
    start = time.perf_counter()
    outputs = entry.fn(ctx)
    duration = time.perf_counter() - start
    return {
        "index": payload["index"],
        "seed": payload["seed"],
        "params": payload["params"],
        "spec": spec.to_dict(),
        "duration_s": duration,
        "metrics": metrics.snapshot(),
        "outputs": dict(outputs or {}),
    }


@contextmanager
def _attempt_alarm(timeout_s: Optional[float]) -> Iterator[None]:
    """Arm a wall-clock alarm around one run attempt.

    Uses ``SIGALRM``/``setitimer`` — available in the main thread of
    POSIX processes, which is exactly where campaign runs execute (the
    calling process inline, or the main thread of a forked pool
    worker).  Elsewhere (Windows, or an embedding that runs campaigns
    off the main thread) the timeout degrades to a no-op rather than
    crashing; the retry and record machinery still applies to runs that
    raise on their own.
    """
    if timeout_s is None or not hasattr(signal, "setitimer"):
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - trivial closure
        raise RunTimeoutError(f"run exceeded its {timeout_s}s timeout")

    try:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
    except ValueError:  # not in the main thread: degrade to no timeout
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_label(payload: Dict[str, object]) -> str:
    """``run 3 (seed=3, params={...})``: how errors name a run."""
    params = json.dumps(payload["params"], sort_keys=True, default=str)
    return f"run {payload['index']} (seed={payload['seed']}, params={params})"


def _failed_record(
    payload: Dict[str, object],
    attempts: int,
    duration_s: float,
    error_type: str,
    message: str,
) -> Dict[str, object]:
    """The manifest record of a run that failed every attempt."""
    return {
        "index": payload["index"],
        "seed": payload["seed"],
        "params": payload["params"],
        "spec": None,
        "duration_s": duration_s,
        "metrics": MetricsRegistry().snapshot(),
        "outputs": {},
        "status": "failed",
        "attempts": attempts,
        "error": {"type": error_type, "message": message},
    }


def _execute_run_guarded(
    payload: Dict[str, object],
    policy: Dict[str, object],
    collect: bool = False,
    lost: int = 0,
) -> Dict[str, object]:
    """One run under the campaign's fault policy: per-attempt timeout,
    ``retries`` extra attempts with linear backoff, and — when the
    policy records instead of raising — a ``status: "failed"`` record
    that carries the final error and the attempt count.

    ``lost`` counts attempts already spent on workers that died under
    this run; they count against ``retries`` like any failed attempt.

    Pool workers pass ``collect=True``, so each attempt ends with a full
    garbage collection: a finished world is cyclic garbage that only a
    full pass frees, and a worker running back-to-back worlds would
    otherwise keep several alive at once.  A serial campaign runs in the
    caller's process, whose whole heap such a pass would walk.
    """
    timeout_s = policy.get("timeout_s")
    attempts_allowed = int(policy.get("retries", 0)) + 1
    backoff_s = float(policy.get("backoff_s", 0.0))
    if lost and backoff_s > 0.0:
        time.sleep(backoff_s * lost)
    start = time.perf_counter()
    last_error: Optional[BaseException] = None
    for attempt in range(lost + 1, attempts_allowed + 1):
        try:
            with _attempt_alarm(timeout_s):
                record = _execute_run(payload)
            record["status"] = "ok"
            record["attempts"] = attempt
            return record
        except Exception as exc:
            last_error = exc
            if attempt < attempts_allowed and backoff_s > 0.0:
                time.sleep(backoff_s * attempt)
        finally:
            if collect:
                gc.collect()
    if policy.get("on_error") == "record":
        return _failed_record(
            payload,
            attempts_allowed,
            time.perf_counter() - start,
            type(last_error).__name__,
            str(last_error),
        )
    raise CampaignRunError(
        f"{_run_label(payload)} failed after {attempts_allowed} attempt(s): "
        f"{type(last_error).__name__}: {last_error}"
    ) from last_error


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is markedly cheaper where available (the workers inherit the
    # already-imported simulator); spawn is the portable fallback.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _is_wall_time(name: str) -> bool:
    return WALL_TIME_MARKER in name


def _aggregate(results: List[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-run results (already sorted by index) into the manifest's
    deterministic ``aggregate`` section: merged simulation metrics plus
    summed numeric outputs.  Wall-clock metrics and durations are
    deliberately excluded — they belong to the host, not the simulation.
    Failed runs are counted, not folded: their (empty) metrics and
    outputs would otherwise silently dilute nothing, but counting them
    keeps "5,328 devices" honest when 12 runs died."""
    completed = [r for r in results if r.get("status", "ok") == "ok"]
    metrics = merge_snapshots(
        (r["metrics"] for r in completed), exclude=_is_wall_time
    )
    outputs: Dict[str, float] = {}
    for result in completed:
        for key, value in result["outputs"].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            outputs[key] = outputs.get(key, 0) + value
    return {
        "runs": len(completed),
        "failed": len(results) - len(completed),
        "metrics": metrics,
        "outputs": {key: outputs[key] for key in sorted(outputs)},
    }


def _failed_indices(results: List[Dict[str, object]]) -> List[int]:
    return sorted(
        int(r["index"]) for r in results if r.get("status", "ok") != "ok"
    )


# ----------------------------------------------------------------------
# Output paths
# ----------------------------------------------------------------------
def sidecar_path(output_path: Union[str, pathlib.Path]) -> pathlib.Path:
    """The JSONL sidecar that rides next to a campaign manifest."""
    return pathlib.Path(f"{output_path}.runs.jsonl")


# ----------------------------------------------------------------------
# JSONL sidecar (streaming per-run records + heartbeats)
# ----------------------------------------------------------------------
class _SidecarWriter:
    """Streams per-run records to the JSONL sidecar as they complete.

    The file is rewritten at campaign start (meta line, then any reused
    runs) and appended to — with a flush per record — for the rest of
    the execution, so a killed campaign leaves every completed run on
    disk for ``--resume``.  Construction only opens the file and writes
    the meta line; every subsequent write happens inside the campaign's
    ``try/finally``, so a crash anywhere — a pool worker raising
    included — still closes the handle and leaves a replayable sidecar.

    Heartbeats come from a dedicated daemon thread
    (:meth:`start_heartbeats`), not from the run loop, so a sidecar
    stays demonstrably *alive* even while one long run is executing:
    ``campaign status`` reads a slow campaign as running and a killed
    or wedged one, gone silent, as stalled.  The meta line records the
    campaign, scenario, plan size and heartbeat interval, so that
    view needs nothing but the sidecar.  All writes are serialized
    through a lock.
    """

    def __init__(
        self, config: CampaignConfig, path: pathlib.Path, plan_runs: int
    ) -> None:
        self.path = sidecar_path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._stop_beating = threading.Event()
        self._beater: Optional[threading.Thread] = None
        self._emit(
            {
                "kind": "campaign-meta",
                "scenario": config.scenario,
                "campaign": config.name or config.scenario,
                "heartbeat_s": config.heartbeat_s,
                "plan_runs": plan_runs,
                "created_unix": time.time(),
            }
        )

    def _emit(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()

    def write(self, record: Dict[str, object]) -> None:
        self._emit(record)

    def heartbeat(self, completed: int, pending: int) -> None:
        """A liveness record: the campaign process was alive at
        ``unix`` with ``pending`` runs still in flight.  Progress plus a
        fresh heartbeat = slow; no fresh heartbeat = stalled/dead."""
        self._emit(
            {
                "kind": "heartbeat",
                "unix": time.time(),
                "completed": completed,
                "pending": pending,
            }
        )

    def start_heartbeats(
        self,
        interval_s: float,
        progress: Callable[[], Tuple[int, int]],
    ) -> None:
        """Emit a heartbeat every ``interval_s`` while runs are in
        flight.  ``progress`` returns ``(completed, pending)``; beats
        stop once nothing is pending (and at :meth:`close`)."""

        def beat() -> None:
            while not self._stop_beating.wait(interval_s):
                completed, pending = progress()
                if pending <= 0:
                    return
                self.heartbeat(completed=completed, pending=pending)

        self._beater = threading.Thread(
            target=beat, name="campaign-heartbeat", daemon=True
        )
        self._beater.start()

    def close(self) -> None:
        self._stop_beating.set()
        if self._beater is not None:
            self._beater.join(timeout=5.0)
            self._beater = None
        self._handle.close()


def parse_sidecar_text(text: str) -> List[Dict[str, object]]:
    """Every record in a sidecar's content, in order, skipping anything
    unusable: blank lines, non-objects, and — crucially — the torn
    trailing line a SIGKILLed campaign leaves mid-write.  Every sidecar
    consumer (``--resume``, ``campaign status``) shares this tolerance
    instead of reimplementing it."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def _is_run_record(record: Dict[str, object]) -> bool:
    """A sidecar record that is one run's result (not the meta line or
    a heartbeat); ``--resume`` and ``campaign status`` both count runs
    with this."""
    return (
        record.get("kind") is None and "seed" in record and "params" in record
    )


def _read_sidecar(
    path: pathlib.Path,
) -> Tuple[List[Dict[str, object]], Optional[str]]:
    """Parse sidecar lines into (run records, scenario name).

    A truncated trailing line — the signature of a killed campaign —
    is tolerated and skipped, as are heartbeat and other non-run
    records."""
    runs: List[Dict[str, object]] = []
    scenario_name: Optional[str] = None
    for record in parse_sidecar_text(path.read_text(encoding="utf-8")):
        if record.get("kind") == "campaign-meta":
            scenario_name = record.get("scenario")
        elif _is_run_record(record):
            runs.append(record)
    return runs, scenario_name


# ----------------------------------------------------------------------
# Resume support
# ----------------------------------------------------------------------
def _run_key(seed: object, params: Dict[str, object]) -> Tuple[int, str]:
    """Identity of one run: the seed plus its canonicalized parameters.

    Indices are *not* part of the key — a resumed campaign may expand to
    a different run order (more seeds, a widened grid) and prior results
    are re-keyed into the new plan wherever they fit.
    """
    return (int(seed), json.dumps(params, sort_keys=True, default=str))


def _load_prior_runs(
    config: CampaignConfig, path: pathlib.Path
) -> Tuple[List[Dict[str, object]], Optional[str]]:
    """Completed runs recorded at the output path: the JSONL sidecar
    when present (it survives kills), else the manifest itself."""
    sidecar = sidecar_path(path)
    if sidecar.exists():
        return _read_sidecar(sidecar)
    if not path.exists():
        return [], None
    try:
        previous = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot resume from {path}: {exc}") from exc
    return list(previous.get("runs", [])), previous.get("scenario")


def _split_resumable(
    config: CampaignConfig,
    payloads: List[Dict[str, object]],
    path: pathlib.Path,
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Partition payloads into (still to run, reused prior results).

    Failed prior runs are deliberately not reusable: resuming a
    campaign retries them (their failure may have been the dying worker
    this resume is recovering from)."""
    prior_runs, prior_scenario = _load_prior_runs(config, path)
    if not prior_runs and prior_scenario is None:
        return payloads, []
    if prior_scenario != config.scenario:
        raise ValueError(
            f"cannot resume from {path}: it ran scenario "
            f"{prior_scenario!r}, not {config.scenario!r}"
        )
    prior: Dict[Tuple[int, str], Dict[str, object]] = {}
    for run in prior_runs:
        if run.get("status", "ok") != "ok":
            continue
        prior[_run_key(run["seed"], run["params"])] = run
    remaining: List[Dict[str, object]] = []
    reused: List[Dict[str, object]] = []
    for payload in payloads:
        run = prior.get(_run_key(payload["seed"], payload["params"]))
        if run is None:
            remaining.append(payload)
        else:
            run = dict(run)
            run["index"] = payload["index"]
            reused.append(run)
    return remaining, reused


# ----------------------------------------------------------------------
# The campaign itself
# ----------------------------------------------------------------------
def _pool_worker(conn, parent_end) -> None:
    """A campaign pool process: run the payloads the parent sends over
    ``conn``, one at a time, until it sends ``None`` or dies.
    Module-level, so a spawned worker can import it."""
    parent_end.close()  # else the parent's death never reads as EOF here
    # Freezing what a forked worker inherits keeps its per-run
    # collections down to the run's own objects.
    gc.freeze()
    try:
        while True:
            job = conn.recv()
            if job is None:
                return
            payload, policy, lost = job
            try:
                record = _execute_run_guarded(payload, policy, True, lost)
            except CampaignRunError as exc:
                conn.send(("error", str(exc)))
            else:
                conn.send(("ok", record))
    except (EOFError, OSError):
        return  # the parent is gone; nobody is left to report to


class _Worker:
    """One pool process, the parent's end of its pipe, and the job it
    holds: ``(payload, attempts lost to dead workers)`` or ``None``."""

    def __init__(self, context: multiprocessing.context.BaseContext) -> None:
        self.conn, child_end = context.Pipe()
        self.proc = context.Process(
            target=_pool_worker, args=(child_end, self.conn), daemon=True
        )
        self.proc.start()
        child_end.close()  # the worker's death must read as EOF here
        self.job: Optional[Tuple[Dict[str, object], int]] = None
        self.sent_at = 0.0


def _death_cause(exitcode: Optional[int]) -> str:
    """``killed by SIGKILL`` / ``exited with code 1``."""
    if exitcode is not None and exitcode < 0:
        try:
            return f"killed by {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"killed by signal {-exitcode}"
    return f"exited with code {exitcode}"


def _run_pool(
    payloads: List[Dict[str, object]],
    policy: Dict[str, object],
    workers: int,
    deliver: Callable[[Dict[str, object]], None],
) -> None:
    """Run ``payloads`` on ``workers`` processes, handing each worker one
    payload at a time over a pipe, and ``deliver`` every record the
    moment its run finishes (so it streams to the sidecar at once).

    The parent blocks on every worker's pipe and process sentinel
    together, so it always knows which run a dead worker held.  That
    run is charged one attempt and resent to a fresh worker while
    attempts remain; an exhausted run follows ``on_error`` with an
    error naming the run and the signal.  A worker that dies idle costs
    no run anything.  A run that raises in every attempt surfaces as
    :class:`CampaignRunError` (``on_error="raise"``) just as inline.
    """
    from multiprocessing.connection import wait

    context = _pool_context()
    attempts_allowed = int(policy["retries"]) + 1
    todo = collections.deque((payload, 0) for payload in payloads)
    started: List[_Worker] = []
    live: List[_Worker] = []

    def bury(worker: _Worker) -> None:
        live.remove(worker)
        worker.proc.join()
        worker.conn.close()
        if worker.job is None:
            return
        (payload, lost), worker.job = worker.job, None
        lost += 1
        if lost < attempts_allowed:
            todo.appendleft((payload, lost))
            return
        message = (
            f"{_run_label(payload)} failed after {attempts_allowed} "
            f"attempt(s): its worker {_death_cause(worker.proc.exitcode)}"
        )
        if policy["on_error"] != "record":
            raise CampaignRunError(message)
        deliver(
            _failed_record(
                payload,
                attempts_allowed,
                time.perf_counter() - worker.sent_at,
                "WorkerDied",
                message,
            )
        )

    try:
        while True:
            idle = [w for w in live if w.job is None]
            while len(live) < workers and len(idle) < len(todo):
                worker = _Worker(context)
                started.append(worker)
                live.append(worker)
                idle.append(worker)
            for worker in idle:
                if not todo:
                    live.remove(worker)
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
                    continue
                payload, lost = todo.popleft()
                try:
                    worker.conn.send((payload, policy, lost))
                except OSError:  # it died idle: the run was never sent
                    todo.appendleft((payload, lost))
                    bury(worker)
                    continue
                worker.job = (payload, lost)
                worker.sent_at = time.perf_counter()
            if not live:
                if todo:
                    continue
                return
            wait([w.conn for w in live] + [w.proc.sentinel for w in live])
            for worker in list(live):
                if worker.conn.poll():
                    try:
                        kind, value = worker.conn.recv()
                    except EOFError:
                        bury(worker)
                        continue
                    worker.job = None
                    if kind == "error":
                        raise CampaignRunError(value)
                    deliver(value)
                elif not worker.proc.is_alive():
                    bury(worker)
    except BaseException:
        for worker in started:
            worker.proc.kill()
        raise
    finally:
        for worker in started:
            worker.proc.join()
            worker.conn.close()


def run_campaign(config: CampaignConfig) -> Dict[str, object]:
    """Execute ``config``'s runs and return the manifest.

    With ``output_path`` set, per-run records stream to the JSONL
    sidecar as they complete and the manifest is written to
    ``output_path`` at the end.  A manifest already there is removed
    once the sidecar holds every reused run (``resume`` has read it by
    then), so a manifest on disk always means this campaign finished.
    """
    from repro import __version__  # deferred: repro/__init__ imports telemetry

    # Fail fast, before forking workers: config consistency, unknown
    # scenario, unknown parameter names (base params and every swept
    # grid key), bad values.  Coercion makes a CLI string like "0.05"
    # the float every worker agrees on.
    config.validate()
    entry = REGISTRY.get(config.scenario)
    config = replace(
        config,
        params=entry.coerce_params(config.params),
        grid=entry.coerce_grid(config.grid),
    )
    payloads = config.expand()
    plan_runs = len(payloads)
    output_path = (
        None if config.output_path is None else pathlib.Path(config.output_path)
    )
    if config.resume and output_path is None:
        raise ValueError("resume requires output_path (the manifest to resume)")
    start = time.perf_counter()
    reused: List[Dict[str, object]] = []
    if config.resume:
        payloads, reused = _split_resumable(config, payloads, output_path)
    writer: Optional[_SidecarWriter] = None
    policy = config.run_policy()
    results: List[Dict[str, object]] = []

    def deliver(record: Dict[str, object]) -> None:
        if writer is not None:
            writer.write(record)
        results.append(record)

    if output_path is not None:
        writer = _SidecarWriter(config, output_path, plan_runs)
    try:
        # Reused records are re-streamed first so the sidecar is always
        # the complete picture of this campaign, even if it crashes on
        # the very first fresh run.  This (and everything below) sits
        # inside the try/finally: a raising worker must still leave a
        # closed, replayable sidecar behind.  Then an earlier manifest
        # goes: from here on, a manifest at output_path means done.
        if writer is not None:
            for run in reused:
                writer.write(run)
            output_path.unlink(missing_ok=True)
        if writer is not None and config.heartbeat_s is not None and payloads:
            # Liveness rides its own thread: the sidecar keeps beating
            # even while one long run is executing, so the control
            # plane can tell "slow" from "dead" without guessing.
            total = len(payloads)
            writer.start_heartbeats(
                config.heartbeat_s,
                lambda: (len(results), total - len(results)),
            )
        if config.workers == 1 or len(payloads) == 1:
            for payload in payloads:
                deliver(_execute_run_guarded(payload, policy))
        else:
            _run_pool(payloads, policy, config.workers, deliver)
    finally:
        if writer is not None:
            writer.close()
    results.extend(reused)
    results.sort(key=lambda r: r["index"])
    manifest: Dict[str, object] = {
        "campaign": config.name or config.scenario,
        "scenario": config.scenario,
        "scenario_fingerprint": entry.fingerprint(),
        "repro_version": __version__,
        "git_rev": _git_revision(),
        "created_unix": time.time(),
        "workers": config.workers,
        "seeds": [int(seed) for seed in config.seeds],
        "base_params": dict(config.params),
        "grid": {k: list(v) for k, v in config.grid.items()} if config.grid else None,
        "run_policy": policy,
        "runs": results,
        "resumed_runs": len(reused),
        "failed_runs": _failed_indices(results),
        "aggregate": _aggregate(results),
        "total_duration_s": time.perf_counter() - start,
    }
    if output_path is not None:
        manifest["runs_jsonl"] = str(sidecar_path(output_path))
        write_manifest(manifest, output_path)
    return manifest


def summarize_manifest(manifest: Dict[str, object]) -> str:
    """Human-readable campaign summary (the CLI prints this)."""
    lines = [
        f"campaign   : {manifest['campaign']}",
        f"scenario   : {manifest['scenario']}",
        f"git rev    : {(manifest['git_rev'] or 'unknown')[:12]}",
        f"runs       : {manifest['aggregate']['runs']} "
        f"({manifest['workers']} worker(s), "
        f"{manifest['total_duration_s']:.2f}s wall)",
    ]
    failed = manifest.get("failed_runs") or []
    if failed:
        lines.append(
            f"FAILED     : {len(failed)} run(s): "
            f"{', '.join(str(i) for i in failed)}"
        )
    lines.append("")
    lines.append("  run  seed  duration   outputs")
    for run in manifest["runs"]:
        if run.get("status", "ok") != "ok":
            error = run.get("error") or {}
            column = (
                f"FAILED after {run.get('attempts', '?')} attempt(s): "
                f"{error.get('type', 'Error')}: {error.get('message', '')}"
            )
        else:
            column = ", ".join(
                f"{key}={value}" for key, value in sorted(run["outputs"].items())
            )
        lines.append(
            f"  {run['index']:>3}  {run['seed']:>4}  {run['duration_s']:>7.2f}s   {column}"
        )
    lines.append("")
    lines.append("aggregate outputs:")
    for key, value in manifest["aggregate"]["outputs"].items():
        lines.append(f"  {key:<24} {value}")
    counters = manifest["aggregate"]["metrics"]["counters"]
    if counters:
        lines.append("aggregate counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<32} {value}")
    return "\n".join(lines)
