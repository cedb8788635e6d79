"""Sharded campaign runner: deterministic partitioning, merge validation,
and the shard-count-independence contract.

The headline guarantee extends PR 1's worker-count independence: the
``aggregate`` section of a merged manifest is **byte-identical** to the
single-process, single-shard run's, for any shard count and any merge
order.  A property-based test sweeps random small campaigns across
workers × shards to pin that; the rest of the file pins the guard rails
— ``campaign merge`` must refuse mismatched specs/revisions and report
missing shards instead of silently aggregating.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import REGISTRY, IntParam, scenario
from repro.telemetry import (
    CampaignConfig,
    MissingShardsError,
    ShardMismatchError,
    merge_manifest_files,
    merge_manifests,
    run_campaign,
    shard_manifest_path,
)


@scenario(
    "unit-shard-sum",
    param_schema={
        "offset": IntParam(minimum=0, default=0),
        "draws": IntParam(minimum=1, default=8),
    },
)
def _unit_shard_scenario(ctx):
    """Cheap deterministic scenario: seeded arithmetic, no simulator."""
    import numpy as np

    rng = np.random.default_rng(ctx.spec.seed + ctx.params["offset"])
    draws = ctx.params["draws"]
    values = rng.integers(0, 100, size=draws)
    ctx.metrics.counter("test.draws").inc(draws)
    return {"total": int(values.sum())}


def _config(**overrides):
    defaults = dict(scenario="unit-shard-sum", seeds=[0, 1, 2])
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def _aggregate_json(manifest):
    return json.dumps(manifest["aggregate"], sort_keys=True)


class TestShardPartition:
    def test_shards_partition_the_plan_disjointly(self):
        base = _config(seeds=[0, 1, 2, 3, 4], grid={"offset": [0, 10]})
        full = {p["index"] for p in base.expand()}
        seen = []
        for i in range(3):
            shard = _config(
                seeds=[0, 1, 2, 3, 4], grid={"offset": [0, 10]},
                shard_index=i, shard_count=3,
            )
            indices = [p["index"] for p in shard.shard_payloads()]
            assert all(index % 3 == i for index in indices)
            seen.extend(indices)
        assert sorted(seen) == sorted(full)
        assert len(seen) == len(set(seen))

    def test_unsharded_shard_payloads_is_the_full_plan(self):
        base = _config()
        assert base.shard_payloads() == base.expand()

    def test_round_robin_balances_within_one_run(self):
        # 10 runs over 3 shards: sizes 4/3/3, never 10/0/0.
        sizes = [
            len(
                _config(
                    seeds=list(range(10)), shard_index=i, shard_count=3
                ).shard_payloads()
            )
            for i in range(3)
        ]
        assert sizes == [4, 3, 3]

    def test_invalid_shard_configs_rejected(self):
        with pytest.raises(ValueError, match="shard_count"):
            _config(shard_count=0).validate()
        with pytest.raises(ValueError, match="shard_index"):
            _config(shard_count=2).validate()
        with pytest.raises(ValueError, match="shard_index"):
            _config(shard_index=2, shard_count=2).validate()
        with pytest.raises(ValueError, match="shard_index"):
            _config(shard_index=-1, shard_count=2).validate()

    def test_shard_manifest_path_naming(self, tmp_path):
        path = shard_manifest_path(tmp_path / "out.json", 0, 4)
        assert path.name == "out.shard1of4.json"
        assert shard_manifest_path("x/c.json", 3, 4).name == "c.shard4of4.json"


class TestShardedRun:
    def test_shard_manifest_records_identity(self, tmp_path):
        manifest = run_campaign(
            _config(
                shard_index=1, shard_count=2,
                output_path=tmp_path / "out.json",
            )
        )
        shard = manifest["shard"]
        assert shard == {
            "index": 1, "count": 2, "plan_runs": 3, "shard_runs": 1,
        }
        entry = REGISTRY.get("unit-shard-sum")
        assert manifest["scenario_fingerprint"] == entry.fingerprint()
        # Written to the derived shard path, with its own sidecar.
        on_disk = tmp_path / "out.shard2of2.json"
        assert on_disk.exists()
        assert (tmp_path / "out.shard2of2.json.runs.jsonl").exists()
        assert [r["index"] for r in manifest["runs"]] == [1]

    def test_merge_reproduces_the_unsharded_aggregate(self):
        reference = run_campaign(_config(seeds=[0, 1, 2, 3, 4]))
        shards = [
            run_campaign(
                _config(
                    seeds=[0, 1, 2, 3, 4], shard_index=i, shard_count=3
                )
            )
            for i in range(3)
        ]
        # Merge order must not matter (shards complete in any order).
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            merged = merge_manifests([shards[i] for i in order])
            assert _aggregate_json(merged) == _aggregate_json(reference)
            assert [r["index"] for r in merged["runs"]] == [0, 1, 2, 3, 4]
            assert merged["complete"] is True
            assert merged["shards"]["missing"] == []

    def test_single_shard_split_merges_to_itself(self):
        reference = run_campaign(_config())
        shard = run_campaign(_config(shard_index=0, shard_count=1))
        merged = merge_manifests([shard])
        assert _aggregate_json(merged) == _aggregate_json(reference)

    def test_resume_works_per_shard(self, tmp_path):
        config = _config(
            seeds=[0, 1, 2, 3], shard_index=0, shard_count=2,
            output_path=tmp_path / "out.json",
        )
        first = run_campaign(config)
        resumed = run_campaign(
            _config(
                seeds=[0, 1, 2, 3], shard_index=0, shard_count=2,
                output_path=tmp_path / "out.json", resume=True,
            )
        )
        assert resumed["resumed_runs"] == len(first["runs"]) == 2
        assert _aggregate_json(resumed) == _aggregate_json(first)


class TestMergeValidation:
    def _two_shards(self, **overrides):
        return [
            run_campaign(
                _config(shard_index=i, shard_count=2, **overrides)
            )
            for i in range(2)
        ]

    def test_merge_refuses_non_shard_manifest(self):
        plain = run_campaign(_config())
        with pytest.raises(ShardMismatchError, match="no 'shard' section"):
            merge_manifests([plain])

    def test_merge_reports_missing_shards_instead_of_aggregating(self):
        shard0, _ = self._two_shards()
        with pytest.raises(MissingShardsError, match="missing shard") as exc:
            merge_manifests([shard0])
        assert exc.value.missing == [1]
        assert exc.value.count == 2

    def test_allow_missing_merges_with_the_gap_reported(self):
        shard0, _ = self._two_shards()
        merged = merge_manifests([shard0], allow_missing=True)
        assert merged["complete"] is False
        assert merged["shards"] == {"count": 2, "present": [0], "missing": [1]}
        # Aggregate covers only what is present — and says so.
        assert merged["aggregate"]["runs"] == len(shard0["runs"])

    def test_merge_refuses_mismatched_fingerprints(self):
        shard0, shard1 = self._two_shards()
        shard1 = dict(shard1, scenario_fingerprint="0" * 64)
        with pytest.raises(ShardMismatchError, match="scenario_fingerprint"):
            merge_manifests([shard0, shard1])

    def test_merge_refuses_mismatched_revisions(self):
        shard0, shard1 = self._two_shards()
        shard1 = dict(shard1, git_rev="deadbeef")
        with pytest.raises(ShardMismatchError, match="git_rev"):
            merge_manifests([shard0, shard1])
        shard1 = dict(self._two_shards()[1], repro_version="0.0.0")
        with pytest.raises(ShardMismatchError, match="repro_version"):
            merge_manifests([shard0, shard1])

    def test_merge_refuses_mismatched_plans(self):
        shard0 = run_campaign(_config(shard_index=0, shard_count=2))
        other = run_campaign(
            _config(seeds=[7, 8, 9], shard_index=1, shard_count=2)
        )
        with pytest.raises(ShardMismatchError, match="seeds"):
            merge_manifests([shard0, other])

    def test_merge_refuses_duplicate_shards(self):
        shard0, _ = self._two_shards()
        with pytest.raises(ShardMismatchError, match="both shard"):
            merge_manifests([shard0, dict(shard0)])

    def test_merge_refuses_disagreeing_shard_counts(self):
        shard0, _ = self._two_shards()
        shard0of3 = run_campaign(_config(shard_index=0, shard_count=3))
        with pytest.raises(ShardMismatchError, match="shard count"):
            merge_manifests([shard0, shard0of3])

    def test_merge_refuses_runs_outside_their_shard(self):
        shard0, shard1 = self._two_shards()
        # Tamper: a run record whose index belongs to the other shard.
        shard1 = json.loads(json.dumps(shard1))
        shard1["runs"][0]["index"] = 0
        with pytest.raises(ShardMismatchError, match="belongs to shard"):
            merge_manifests([shard0, shard1])

    def test_merge_files_round_trip(self, tmp_path):
        reference = run_campaign(_config(seeds=[0, 1, 2, 3]))
        paths = []
        for i in range(2):
            run_campaign(
                _config(
                    seeds=[0, 1, 2, 3], shard_index=i, shard_count=2,
                    output_path=tmp_path / "out.json",
                )
            )
            paths.append(shard_manifest_path(tmp_path / "out.json", i, 2))
        merged = merge_manifest_files(
            paths, output_path=tmp_path / "merged.json"
        )
        assert _aggregate_json(merged) == _aggregate_json(reference)
        on_disk = json.loads((tmp_path / "merged.json").read_text())
        assert _aggregate_json(on_disk) == _aggregate_json(reference)
        assert on_disk["shards"]["sources"] == [str(p) for p in paths]


class TestShardDeterminismProperty:
    """Property-based sweep: random small campaigns must aggregate
    byte-identically for every (workers, shard_count) combination —
    the worker-count-independence contract extended to shards."""

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=1, max_size=4, unique=True,
        ),
        offsets=st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=1, max_size=2, unique=True,
        ),
        draws=st.integers(min_value=1, max_value=12),
        workers=st.sampled_from([1, 2, 4]),
        shard_count=st.sampled_from([1, 2, 3]),
    )
    def test_workers_by_shards_grid_is_aggregate_invariant(
        self, seeds, offsets, draws, workers, shard_count
    ):
        def config(**overrides):
            return CampaignConfig(
                scenario="unit-shard-sum",
                seeds=seeds,
                params={"draws": draws},
                grid={"offset": offsets},
                **overrides,
            )

        reference = run_campaign(config(workers=1))
        shards = [
            run_campaign(
                config(
                    workers=workers, shard_index=i, shard_count=shard_count
                )
            )
            for i in range(shard_count)
        ]
        merged = merge_manifests(shards)
        assert _aggregate_json(merged) == _aggregate_json(reference)
        assert [r["index"] for r in merged["runs"]] == [
            r["index"] for r in reference["runs"]
        ]
        assert [r["outputs"] for r in merged["runs"]] == [
            r["outputs"] for r in reference["runs"]
        ]
