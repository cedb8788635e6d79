"""Campaign runner: expansion, manifest schema, and the worker-count
determinism guarantee."""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    REGISTRY,
    IntParam,
    available_scenarios,
    scenario,
)
from repro.sim.medium import Medium
from repro.telemetry import CampaignConfig, run_campaign
from repro.telemetry.campaign import (
    SPEC_FIELDS,
    _execute_run,
    _execute_run_guarded,
)


@scenario(
    "unit-test-sum",
    param_schema={
        "draws": IntParam(minimum=1, default=10),
        "scale": IntParam(default=1),
    },
)
def _unit_test_scenario(ctx):
    """Tiny deterministic scenario: no simulator, just seeded arithmetic."""
    import numpy as np

    rng = np.random.default_rng(ctx.spec.seed)
    draws = ctx.params["draws"]
    values = rng.integers(0, 100, size=draws)
    ctx.metrics.counter("test.draws").inc(draws)
    ctx.metrics.histogram("test.values", buckets=(10.0, 50.0, 100.0)).observe(
        float(values[0])
    )
    return {"total": int(values.sum()), "scale": ctx.params["scale"]}


class TestScenarioRegistry:
    def test_builtins_are_registered(self):
        names = available_scenarios()
        assert "wardrive" in names
        assert "battery" in names

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="wardrive"):
            REGISTRY.get("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            scenario("unit-test-sum")(lambda ctx: {})


class TestExpansion:
    def test_seeds_times_grid_cross_product(self):
        config = CampaignConfig(
            scenario="unit-test-sum",
            seeds=[0, 1],
            params={"draws": 5},
            grid={"scale": [1, 2, 3]},
        )
        payloads = config.expand()
        assert len(payloads) == 6
        assert [p["index"] for p in payloads] == list(range(6))
        assert all(p["params"]["draws"] == 5 for p in payloads)
        assert sorted({p["params"]["scale"] for p in payloads}) == [1, 2, 3]

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(scenario="unit-test-sum", seeds=[]).expand()

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0], workers=0
            ).expand()


class TestSpecDict:
    """``from_spec_dict`` is the one reader of a campaign spec (the
    CLI's flags and ``--spec-file`` documents): a seed count means what
    it means on the command line, and a malformed value is a
    ``ValueError`` that names its key."""

    def test_every_spec_field_reaches_the_config(self):
        spec = {
            "scenario": "unit-test-sum", "seeds": [2, 4],
            "params": {"draws": 3}, "grid": {"scale": [1, 2]},
            "name": "rt", "run_timeout_s": 5, "retries": 1,
            "retry_backoff_s": 0.5, "on_error": "record", "heartbeat_s": 1,
        }
        assert tuple(spec) == SPEC_FIELDS
        config = CampaignConfig.from_spec_dict(spec, workers=3)
        assert {key: getattr(config, key) for key in SPEC_FIELDS} == spec
        assert isinstance(config.run_timeout_s, float)
        assert isinstance(config.heartbeat_s, float)
        assert config.workers == 3

    def test_absent_and_null_keys_take_the_defaults(self):
        config = CampaignConfig.from_spec_dict(
            {"scenario": "unit-test-sum", "grid": None, "name": None}
        )
        assert config == CampaignConfig(scenario="unit-test-sum")

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            CampaignConfig.from_spec_dict(
                {"scenario": "unit-test-sum", "workers": 2}
            )

    def test_seed_count_expands_like_the_cli(self):
        config = CampaignConfig.from_spec_dict(
            {"scenario": "unit-test-sum", "seeds": 3}
        )
        assert config.seeds == [0, 1, 2]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seeds", 0),
            ("seeds", [0.5]),
            ("seeds", [True]),
            ("params", [1]),
        ],
    )
    def test_malformed_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            CampaignConfig.from_spec_dict(
                {"scenario": "unit-test-sum", key: value}
            )

    def test_empty_grid_axis_is_rejected_by_validate(self):
        config = CampaignConfig.from_spec_dict(
            {"scenario": "battery", "grid": {"duration_s": []}}
        )
        with pytest.raises(ValueError, match="duration_s"):
            config.validate()


class TestExecution:
    def test_run_result_shape(self):
        result = _execute_run(
            {"index": 3, "scenario": "unit-test-sum", "seed": 7, "params": {}}
        )
        assert result["index"] == 3
        assert result["seed"] == 7
        assert result["duration_s"] >= 0.0
        assert result["metrics"]["counters"]["test.draws"] == 10
        assert isinstance(result["outputs"]["total"], int)

    def test_same_seed_reproduces_outputs(self):
        payload = {
            "index": 0, "scenario": "unit-test-sum", "seed": 11, "params": {},
        }
        first = _execute_run(dict(payload))
        second = _execute_run(dict(payload))
        assert first["outputs"] == second["outputs"]
        assert first["metrics"] == second["metrics"]


class TestManifest:
    def test_manifest_schema_and_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum",
                seeds=[0, 1, 2],
                name="schema-check",
                output_path=path,
            )
        )
        for key in (
            "campaign", "scenario", "scenario_fingerprint", "repro_version",
            "git_rev", "created_unix", "workers", "seeds", "base_params",
            "grid", "run_policy", "runs", "failed_runs", "aggregate",
            "total_duration_s",
        ):
            assert key in manifest
        assert manifest["campaign"] == "schema-check"
        assert manifest["seeds"] == [0, 1, 2]
        entry = REGISTRY.get("unit-test-sum")
        assert manifest["scenario_fingerprint"] == entry.fingerprint()
        assert manifest["failed_runs"] == []
        assert len(manifest["runs"]) == 3
        run0 = manifest["runs"][0]
        assert set(run0) == {
            "index", "seed", "params", "spec", "duration_s", "metrics",
            "outputs", "status", "attempts",
        }
        assert run0["status"] == "ok"
        assert run0["attempts"] == 1
        # The embedded spec is the run's concrete ScenarioSpec: seeded,
        # with the run's params stamped on.
        assert run0["spec"]["seed"] == run0["seed"]
        assert manifest["aggregate"]["runs"] == 3
        assert manifest["aggregate"]["failed"] == 0
        # Numeric outputs sum; non-numeric outputs are dropped from the
        # aggregate but kept per-run.
        expected = sum(r["outputs"]["total"] for r in manifest["runs"])
        assert manifest["aggregate"]["outputs"]["total"] == expected
        # The manifest on disk is the same object, valid JSON.
        on_disk = json.loads(path.read_text())
        assert on_disk["aggregate"] == manifest["aggregate"]

    def test_wall_time_metrics_stay_out_of_aggregate(self):
        manifest = run_campaign(
            CampaignConfig(scenario="unit-test-sum", seeds=[0])
        )
        aggregate_counters = manifest["aggregate"]["metrics"]["counters"]
        assert not any("wall_time" in name for name in aggregate_counters)


class TestWardriveDeterminism:
    """The ISSUE acceptance check: a small wardrive campaign aggregates
    byte-identically with 1 worker vs 4."""

    SEEDS = [0, 1, 2, 3]

    def _aggregate(self, workers):
        manifest = run_campaign(
            CampaignConfig(
                scenario="wardrive", seeds=self.SEEDS, workers=workers
            )
        )
        return manifest

    def test_1_vs_4_workers_identical_aggregate(self):
        serial = self._aggregate(workers=1)
        parallel = self._aggregate(workers=4)
        serial_json = json.dumps(serial["aggregate"], sort_keys=True)
        parallel_json = json.dumps(parallel["aggregate"], sort_keys=True)
        assert serial_json == parallel_json
        # And the per-run simulation metrics match run-for-run (only the
        # host wall-clock metrics may differ between processes).
        for run_a, run_b in zip(serial["runs"], parallel["runs"]):
            assert run_a["outputs"] == run_b["outputs"]
            counters_a = {
                k: v for k, v in run_a["metrics"]["counters"].items()
                if "wall_time" not in k
            }
            counters_b = {
                k: v for k, v in run_b["metrics"]["counters"].items()
                if "wall_time" not in k
            }
            assert counters_a == counters_b

    def test_campaign_metrics_cover_instrumented_subsystems(self):
        manifest = run_campaign(
            CampaignConfig(scenario="wardrive", seeds=[0])
        )
        counters = manifest["aggregate"]["metrics"]["counters"]
        assert counters["engine.events.executed"] > 0
        assert counters["medium.frames.transmitted"] > 0
        assert counters["ack.acks_sent"] > 0
        # Every probed device answered — the paper's headline, visible
        # straight from the campaign aggregate.
        outputs = manifest["aggregate"]["outputs"]
        assert outputs["responded"] == outputs["probed"] > 0

    def test_a_worker_frees_each_finished_world(self):
        # A finished world is cyclic garbage; with automatic collection
        # off, only the per-run collection pool workers ask for frees it.
        def live_media():
            return sum(isinstance(obj, Medium) for obj in gc.get_objects())

        payload = {"index": 0, "scenario": "wardrive", "seed": 0, "params": {}}
        gc.collect()
        before = live_media()
        gc.disable()
        try:
            record = _execute_run_guarded(payload, {}, collect=True)
            after = live_media()
        finally:
            gc.enable()
        assert record["status"] == "ok"
        assert after == before


class TestWorkerCountProperty:
    """Random small campaigns aggregate byte-identically, run for run,
    on 1, 2 or 4 workers."""

    @settings(max_examples=10, deadline=None)
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=1, max_size=4, unique=True,
        ),
        scales=st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=1, max_size=2, unique=True,
        ),
        draws=st.integers(min_value=1, max_value=12),
        workers=st.sampled_from([1, 2, 4]),
    )
    def test_random_campaigns_match_one_worker(
        self, seeds, scales, draws, workers
    ):
        def run(workers):
            return run_campaign(
                CampaignConfig(
                    scenario="unit-test-sum",
                    seeds=seeds,
                    params={"draws": draws},
                    grid={"scale": scales},
                    workers=workers,
                )
            )

        reference = run(1)
        pooled = run(workers)
        assert json.dumps(pooled["aggregate"], sort_keys=True) == json.dumps(
            reference["aggregate"], sort_keys=True
        )
        assert [r["index"] for r in pooled["runs"]] == [
            r["index"] for r in reference["runs"]
        ]
        assert [r["outputs"] for r in pooled["runs"]] == [
            r["outputs"] for r in reference["runs"]
        ]


_RESUME_EXECUTIONS = []


@scenario("unit-test-resume-probe")
def _unit_test_resume_probe(ctx):
    """Deterministic scenario that records which (seed, params) executed,
    so the resume tests can prove completed runs are not re-run."""
    import numpy as np

    seed = ctx.spec.seed
    _RESUME_EXECUTIONS.append((seed, json.dumps(ctx.params, sort_keys=True)))
    rng = np.random.default_rng(seed)
    ctx.metrics.counter("test.runs").inc()
    return {"value": int(rng.integers(0, 1000))}


class TestResume:
    def test_resume_requires_output_path(self):
        with pytest.raises(ValueError, match="output_path"):
            run_campaign(
                CampaignConfig(scenario="unit-test-sum", seeds=[0], resume=True)
            )

    def test_resume_without_existing_manifest_runs_everything(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1],
                output_path=path, resume=True,
            )
        )
        assert manifest["resumed_runs"] == 0
        assert manifest["aggregate"]["runs"] == 2

    def test_resume_skips_completed_seed_params_runs(self, tmp_path):
        path = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-test-resume-probe", seeds=[0, 1],
                output_path=path,
            )
        )
        _RESUME_EXECUTIONS.clear()
        resumed = run_campaign(
            CampaignConfig(
                scenario="unit-test-resume-probe", seeds=[0, 1, 2, 3],
                output_path=path, resume=True,
            )
        )
        # Only the two new seeds executed; seeds 0 and 1 were reused.
        assert sorted(seed for seed, _ in _RESUME_EXECUTIONS) == [2, 3]
        assert resumed["resumed_runs"] == 2
        assert resumed["aggregate"]["runs"] == 4
        # The merged manifest equals one uninterrupted execution.
        _RESUME_EXECUTIONS.clear()
        full = run_campaign(
            CampaignConfig(scenario="unit-test-resume-probe", seeds=[0, 1, 2, 3])
        )
        assert json.dumps(resumed["aggregate"], sort_keys=True) == json.dumps(
            full["aggregate"], sort_keys=True
        )
        assert [r["index"] for r in resumed["runs"]] == [0, 1, 2, 3]
        assert [r["outputs"] for r in resumed["runs"]] == [
            r["outputs"] for r in full["runs"]
        ]

    def test_resume_distinguishes_params(self, tmp_path):
        path = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0],
                params={"draws": 3}, output_path=path,
            )
        )
        # Same seed, different params: must NOT be treated as complete.
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0],
                params={"draws": 7}, output_path=path, resume=True,
            )
        )
        assert manifest["resumed_runs"] == 0

    def test_resume_rejects_scenario_mismatch(self, tmp_path):
        path = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0], output_path=path
            )
        )
        with pytest.raises(ValueError, match="scenario"):
            run_campaign(
                CampaignConfig(
                    scenario="unit-test-resume-probe", seeds=[0],
                    output_path=path, resume=True,
                )
            )


class TestSidecar:
    """S1: per-run records stream to an append-only JSONL sidecar."""

    def test_sidecar_written_alongside_manifest(self, tmp_path):
        from repro.telemetry.campaign import sidecar_path

        path = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1, 2], output_path=path
            )
        )
        sidecar = sidecar_path(path)
        assert manifest["runs_jsonl"] == str(sidecar)
        lines = sidecar.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["kind"] == "campaign-meta"
        assert meta["scenario"] == "unit-test-sum"
        records = [json.loads(line) for line in lines[1:]]
        assert sorted(r["index"] for r in records) == [0, 1, 2]
        # Sidecar records carry the full run payload the manifest has.
        by_index = {r["index"]: r for r in records}
        for run in manifest["runs"]:
            assert by_index[run["index"]]["outputs"] == run["outputs"]

    def test_sidecar_streams_with_workers(self, tmp_path):
        from repro.telemetry.campaign import sidecar_path

        path = tmp_path / "manifest.json"
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1, 2, 3],
                workers=2, output_path=path,
            )
        )
        records = [
            json.loads(line)
            for line in sidecar_path(path).read_text().splitlines()[1:]
        ]
        # Completion order may differ, but every run is present and the
        # manifest stays index-ordered.
        assert sorted(r["index"] for r in records) == [0, 1, 2, 3]
        assert [r["index"] for r in manifest["runs"]] == [0, 1, 2, 3]

    def test_resume_from_sidecar_without_manifest(self, tmp_path):
        from repro.telemetry.campaign import sidecar_path

        path = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1], output_path=path
            )
        )
        # Simulate a crash after the sidecar streamed but before the
        # manifest was assembled.
        path.unlink()
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1, 2],
                output_path=path, resume=True,
            )
        )
        assert manifest["resumed_runs"] == 2
        assert manifest["aggregate"]["runs"] == 3

    def test_resume_tolerates_truncated_last_line(self, tmp_path):
        from repro.telemetry.campaign import sidecar_path

        path = tmp_path / "manifest.json"
        run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1], output_path=path
            )
        )
        path.unlink()
        sidecar = sidecar_path(path)
        # Chop the final record mid-JSON, as a kill -9 would.
        text = sidecar.read_text()
        sidecar.write_text(text[: len(text) - 25])
        manifest = run_campaign(
            CampaignConfig(
                scenario="unit-test-sum", seeds=[0, 1],
                output_path=path, resume=True,
            )
        )
        # The intact run was reused; the truncated one re-executed.
        assert manifest["resumed_runs"] == 1
        assert manifest["aggregate"]["runs"] == 2
