"""Sharded-campaign orchestration overhead microbenchmark.

Measures the campaign runner's own machinery — payload expansion, pool
fan-out, per-run guard (retry/timeout policy), JSONL sidecar streaming,
manifest writes, and the shard merge — with a near-noop scenario, so
the number tracked is orchestration cost per run, not simulation cost.
A regression here taxes every sweep the repo runs, from
``make campaign-smoke`` to a 5,000-device census sharded across
machines.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from benchmarks.perf.harness import BenchOutcome

from repro.scenario import REGISTRY, IntParam
from repro.telemetry import CampaignConfig, merge_manifest_files, run_campaign
from repro.telemetry.campaign import shard_manifest_path

SCENARIO = "bench-campaign-noop"

if SCENARIO not in REGISTRY:

    @REGISTRY.register(
        SCENARIO, param_schema={"draws": IntParam(minimum=1, default=4)}
    )
    def _noop(ctx):
        """Seeded arithmetic only: the runner is the workload."""
        import numpy as np

        rng = np.random.default_rng(ctx.spec.seed)
        draws = ctx.params["draws"]
        return {"total": int(rng.integers(0, 100, size=draws).sum())}


def bench_campaign_shard(quick: bool) -> BenchOutcome:
    seeds = list(range(24 if quick else 240))
    shard_count = 2
    workdir = Path(tempfile.mkdtemp(prefix="bench_campaign_shard_"))
    try:
        out = workdir / "bench.json"
        start = time.perf_counter()
        for index in range(shard_count):
            run_campaign(
                CampaignConfig(
                    scenario=SCENARIO,
                    seeds=seeds,
                    params={"draws": 4},
                    workers=2,
                    shard_index=index,
                    shard_count=shard_count,
                    run_timeout_s=60.0,
                    retries=1,
                    output_path=out,
                )
            )
        run_s = time.perf_counter() - start
        merge_start = time.perf_counter()
        merged = merge_manifest_files(
            [shard_manifest_path(out, i, shard_count) for i in range(shard_count)],
            output_path=workdir / "merged.json",
        )
        merge_s = time.perf_counter() - merge_start
        runs = merged["aggregate"]["runs"]
        return BenchOutcome(
            outputs={
                "runs": runs,
                "shards": shard_count,
                "runs_per_s": runs / run_s if run_s > 0 else 0.0,
                "merge_s": merge_s,
                "failed": merged["aggregate"]["failed"],
            },
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
