"""One repetition of one e2e workload, in a fresh interpreter.

``run.py`` starts ``python unit.py '<job json>'`` with ``PYTHONPATH``
pointing at ``src`` and times it from just before the spawn.  This
process installs the :mod:`tracing` probe before it imports any world,
runs the workload once, and prints one JSON line:

``t_first``
    ``time.monotonic()`` at the first ``Engine.run_until``/``run`` entry
    in any process of the unit (the end of set-up).
``t_done``
    ``time.monotonic()`` when the workload returned its result.
``rss_mb``
    Peak resident set of this process or any child it reaped.
``outputs`` / ``extra`` / ``probe``
    The workload's deterministic outputs, its host-time extras, and the
    merged probe state (engine tallies, spans when traced).
``profile``
    For ``kind == "profile"``: cProfile self time folded by ``repro``
    module, as fractions of the profiled total.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict


def fold_profile(profiler, top: int = 12) -> Dict[str, float]:
    """cProfile self time per ``repro.*`` module, as shares of the total."""
    import pstats

    import repro

    src = Path(repro.__file__).resolve().parent.parent
    by_module: Dict[str, float] = {}
    for (filename, _, _), (_, _, self_s, _, _) in pstats.Stats(profiler).stats.items():
        try:
            relative = Path(filename).resolve().relative_to(src)
            module = ".".join(relative.with_suffix("").parts)
        except ValueError:  # stdlib, numpy, builtins, this benchmark
            module = "(other)"
        by_module[module] = by_module.get(module, 0.0) + self_s
    total = sum(by_module.values()) or 1.0
    ranked = sorted(by_module.items(), key=lambda kv: -kv[1])[:top]
    return {module: self_s / total for module, self_s in ranked}


def main() -> int:
    job = json.loads(sys.argv[1])
    import tracing
    import workloads

    scratch = Path(job["scratch"])
    probe = tracing.Probe(scratch, traced=job["kind"] == "traced").install()
    workload = workloads.WORKLOADS[job["workload"]]
    profiler = None
    if job["kind"] == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    outputs, extra = workload.run(job["seed"], job["smoke"], job["kind"], scratch)
    t_done = time.monotonic()
    if profiler is not None:
        profiler.disable()
    state = probe.collect()
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "t_first": state["first_entry"],
        "t_done": t_done,
        "rss_mb": rss_kb / 1024.0,
        "outputs": outputs,
        "extra": extra,
        "probe": state,
    }
    if profiler is not None:
        record["profile"] = fold_profile(profiler)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
