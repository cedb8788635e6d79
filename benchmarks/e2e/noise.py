"""Record the run-to-run spread of every end-to-end metric, for ``compare.py``.

Usage (from the repository root), after ten runs of each workload with
seeds 0-9 written to ``--out`` files::

    python3 benchmarks/e2e/noise.py benchmarks/e2e/out/noise/*.json \\
        > benchmarks/e2e/noise.json

For each workload and metric it prints the distance between the first and
third quartiles of the runs' medians, as a share of their median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List


def spreads(results: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for result in results:
        for name, record in result["workloads"].items():
            for key, metric in record["metrics"].items():
                values[name][key].append(metric["value"])
    out: Dict[str, Dict[str, float]] = {}
    for name, metrics in sorted(values.items()):
        out[name] = {}
        for key, vs in metrics.items():
            if len(vs) >= 4:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                out[name][key] = round((q3 - q1) / statistics.median(vs), 4)
    return out


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    results = [json.loads(Path(p).read_text(encoding="utf-8")) for p in argv]
    print(json.dumps(spreads([r for r in results if not r["trace"]]), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
