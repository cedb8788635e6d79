"""Compare two e2e benchmark results under the bounds in ``BENCHMARK.json``.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the reference (parent commit), ``B`` the candidate; both are
``--out`` files of ``run.py`` made with the same seed.  One row per
workload and metric:

* end-to-end metrics: ``worse`` when B's median is worse than A's by
  more than the metric's bound, ``improved`` when better by more than
  it, ``unchanged`` otherwise -- and ``unresolved`` when a spread is
  wider than the bound, unless every B sample beats every A sample.  The
  spreads are the run-to-run one recorded in ``noise.json`` (written by
  ``noise.py``; a metric it lacks counts as unresolved) and each side's
  spread between its unit quartiles, each as a share of the median;
* exact counts (unit ``count``), the digest and the failed count:
  ``same`` or ``differs`` (their bound is 0);
* other per-layer metrics: the relative change, for reading only.

Exits 1 when any row is ``worse`` or ``differs``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _spread(metric: Dict[str, object]) -> float:
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def judge(
    a: Dict[str, object], b: Dict[str, object], spec: Dict[str, object], noise: float
) -> str:
    """Verdict for one end-to-end metric whose run-to-run spread is ``noise``."""
    lower = spec["better"] == "lower"
    worse_by = (b["value"] - a["value"]) / abs(a["value"]) * (1.0 if lower else -1.0)
    if max(noise, _spread(a), _spread(b)) > spec["bound"]:
        if lower:
            every_sample_better = max(b["samples"]) < min(a["samples"])
        else:
            every_sample_better = min(b["samples"]) > max(a["samples"])
        return "improved" if every_sample_better else "unresolved"
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "improved"
    return "unchanged"


def compare(
    a: Dict[str, object], b: Dict[str, object], bench: Dict[str, object],
    noise: Dict[str, Dict[str, float]],
) -> List[str]:
    """Rows ``workload metric A B change verdict`` for every shared workload."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for key in ("digest", "failed"):
            verdict = "same" if wa[key] == wb[key] else "differs"
            rows.append(f"{name:<7} {key:<32} {str(wa[key])[:14]:>14} {str(wb[key])[:14]:>14} {'':>8}  {verdict}")
        for spec in bench["end_to_end"] + bench["per_layer"]:
            key = spec["name"]
            if key not in wa["metrics"] or key not in wb["metrics"]:
                continue
            ma, mb = wa["metrics"][key], wb["metrics"][key]
            change = (mb["value"] - ma["value"]) / abs(ma["value"]) if ma["value"] else 0.0
            if "bound" in spec:
                verdict = judge(ma, mb, spec, noise.get(name, {}).get(key, math.inf))
            elif spec["unit"] == "count":
                verdict = "same" if ma["value"] == mb["value"] else "differs"
            else:
                verdict = "-"
            rows.append(
                f"{name:<7} {key:<32} {ma['value']:>14.6g} {mb['value']:>14.6g} "
                f"{change:>+8.1%}  {verdict}"
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); digests and counts will too")
    noise = json.loads((HERE / "noise.json").read_text(encoding="utf-8"))
    rows = compare(a, b, bench, noise)
    print(f"{'':<7} {'metric':<32} {'A':>14} {'B':>14} {'change':>8}  verdict")
    print("\n".join(rows))
    bad = [row for row in rows if row.endswith(("worse", "differs"))]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
