# Convenience targets for the Polite WiFi reproduction.

PYTHON ?= python

.PHONY: install test coverage bench perf perf-full perf-compare perf-report demo examples examples-smoke campaign-smoke campaign-shard-smoke control-smoke metro-smoke metro-chaos-smoke docs-check clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

# Coverage gate over the campaign runner and the event engine — the two
# modules the determinism/fault-injection suite pins.  Requires
# pytest-cov (`pip install -e .[test]`); degrades to a skip notice when
# it is absent so the bare container can still run `make test`.
COVERAGE_FLOOR ?= 85
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
		|| { echo "coverage: pytest-cov not installed; skipping (pip install -e .[test])"; exit 0; } \
		&& $(PYTHON) -m pytest tests/ -q \
			--cov=repro.telemetry --cov=repro.sim.engine \
			--cov=repro.sim.partition \
			--cov-report=term-missing --cov-fail-under=$(COVERAGE_FLOOR)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Perf microbenchmark suite (docs/performance.md): one BENCH_<name>.json
# per benchmark under benchmarks/perf/results.  quick mode is what CI
# runs; full mode is the full-scale wardrive/battery reproduction.
perf:
	PYTHONPATH=src:. $(PYTHON) benchmarks/perf/run_perf.py --quick

perf-full:
	PYTHONPATH=src:. $(PYTHON) benchmarks/perf/run_perf.py --full

# Compare the latest results against the checked-in baselines.  Gating
# by default: the build fails when any quick-mode bench regresses past
# MAX_REGRESSION (25% — tolerant of shared-runner noise; timing reads
# the engine's own run counter, not harness wall clock).  Pass
# MAX_REGRESSION= (empty) for a record-only comparison.
MAX_REGRESSION ?= 1.25
perf-compare:
	PYTHONPATH=src:. $(PYTHON) benchmarks/perf/compare.py \
		benchmarks/perf/baselines benchmarks/perf/results \
		$(if $(MAX_REGRESSION),--max-regression $(MAX_REGRESSION),)

# Human-readable summary of the latest results vs the baselines
# (never fails the build; perf-compare is the gate).
perf-report:
	PYTHONPATH=src:. $(PYTHON) tools/perf_report.py

demo:
	$(PYTHON) -m repro probe

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/deauth_wont_help.py
	$(PYTHON) examples/battery_drain_attack.py
	$(PYTHON) examples/breathing_monitor.py
	$(PYTHON) examples/locate_through_walls.py
	$(PYTHON) examples/keystroke_sniffer.py
	$(PYTHON) examples/wardrive_survey.py
	$(PYTHON) examples/campaign_runner.py

# Headless smoke pass over every example: REPRO_SMOKE=1 makes the heavy
# ones (battery sweep, keystroke calibration, wardrive) run truncated
# variants so the whole set finishes in a couple of minutes.  CI runs
# this so the examples cannot rot.
examples-smoke:
	@set -e; for ex in examples/*.py; do \
		echo "== $$ex"; \
		REPRO_SMOKE=1 $(PYTHON) $$ex > /dev/null; \
	done; echo "examples smoke OK"

# Execute every fenced ```python block in docs/*.md headless so the
# documentation snippets cannot rot (CI runs this in the tests job).
docs-check:
	PYTHONPATH=src $(PYTHON) tools/docs_check.py

# Fast end-to-end check of the telemetry campaign runner: same campaign
# serial and parallel, aggregates must match byte-for-byte.
campaign-smoke:
	$(PYTHON) -m repro campaign --scenario wardrive --seeds 4 --workers 1 --out /tmp/campaign_w1.json > /dev/null
	$(PYTHON) -m repro campaign --scenario wardrive --seeds 4 --workers 4 --out /tmp/campaign_w4.json > /dev/null
	$(PYTHON) -c "import json; a=json.load(open('/tmp/campaign_w1.json'))['aggregate']; b=json.load(open('/tmp/campaign_w4.json'))['aggregate']; assert json.dumps(a,sort_keys=True)==json.dumps(b,sort_keys=True), 'aggregate mismatch'; print('campaign smoke OK:', a['metrics']['counters']['engine.events.executed'], 'events')"

# End-to-end check of the sharded runner: the same battery sweep split
# across two shard invocations, merged, must aggregate byte-identically
# to the unsharded run (shard-count independence, docs/telemetry.md).
campaign-shard-smoke:
	$(PYTHON) -m repro campaign --scenario battery --seeds 4 --out /tmp/shard_ref.json > /dev/null
	$(PYTHON) -m repro campaign --scenario battery --seeds 4 --shard 1/2 --out /tmp/shard_split.json > /dev/null
	$(PYTHON) -m repro campaign --scenario battery --seeds 4 --shard 2/2 --out /tmp/shard_split.json > /dev/null
	$(PYTHON) -m repro campaign merge /tmp/shard_split.shard1of2.json /tmp/shard_split.shard2of2.json --out /tmp/shard_merged.json > /dev/null
	$(PYTHON) -c "import json; a=json.load(open('/tmp/shard_ref.json'))['aggregate']; b=json.load(open('/tmp/shard_merged.json'))['aggregate']; assert json.dumps(a,sort_keys=True)==json.dumps(b,sort_keys=True), 'sharded aggregate mismatch'; print('campaign shard smoke OK:', b['runs'], 'runs across 2 shards')"

# End-to-end check of the control plane (docs/control-plane.md): drive
# a 2-shard battery sweep with one shard deliberately SIGKILLed mid-run
# (--chaos-kill-shard), let the driver steal the dead slice, and verify
# the auto-merged manifest matches an unsharded reference run —
# identity, aggregate, and per-run outputs — via `campaign compare`.
control-smoke:
	rm -rf /tmp/control_smoke && $(PYTHON) -m repro campaign drive --scenario battery --seeds 4 --param duration_s=2.0 --shards 2 --out-dir /tmp/control_smoke --heartbeat 0.2 --chaos-kill-shard 0 --quiet > /dev/null
	$(PYTHON) -m repro campaign status /tmp/control_smoke
	$(PYTHON) -m repro campaign --scenario battery --seeds 4 --param duration_s=2.0 --out /tmp/control_smoke_ref.json > /dev/null
	$(PYTHON) -m repro campaign compare /tmp/control_smoke/manifest.json /tmp/control_smoke_ref.json
	@echo "control smoke OK: killed shard's slice was stolen and the merge matches"

# CI-sized check of the tiled partition runner (docs/partitioning.md):
# the same quick-mode metro census on a 2x2 tile grid across 2 worker
# processes and on the single-process tiles=1 equivalence anchor must
# produce identical aggregates (tile- and worker-count independence).
metro-smoke:
	$(PYTHON) -c "from repro.scenario import run_scenario; base=dict(metro_scale=1.0, blocks_x=10, blocks_y=8, max_devices=400, epoch_s=20.0); tiled=run_scenario('wardrive-metro', seed=0, quiet=True, params=dict(base, tiles_x=2, tiles_y=2, tile_workers=2)); single=run_scenario('wardrive-metro', seed=0, quiet=True, params=dict(base, tiles_x=1, tiles_y=1)); keys=('population','vendors','discovered','probed','responded','vendors_responded'); bad=[k for k in keys if tiled.outputs[k]!=single.outputs[k]]; assert not bad, f'tiled != tiles=1 on {bad}'; print('metro smoke OK:', tiled.outputs['discovered'], 'discovered,', tiled.outputs['tiles'], 'tiles /', tiled.outputs['tile_workers'], 'workers == tiles=1')"

# Fault-tolerance check of the tile supervisor (docs/partitioning.md):
# the same quick-mode census with one of the two workers SIGKILLed
# mid-epoch must relaunch it, fast-forward it by deterministic replay,
# and still produce aggregates identical to an undisturbed run.
metro-chaos-smoke:
	$(PYTHON) -c "from repro.scenario import run_scenario; base=dict(metro_scale=1.0, blocks_x=10, blocks_y=8, max_devices=400, epoch_s=20.0, tiles_x=2, tiles_y=2, tile_workers=2); killed=run_scenario('wardrive-metro', seed=0, quiet=True, params=dict(base, chaos_kill_worker=0, chaos_kill_epoch=1, chaos_kill_phase='mid')); calm=run_scenario('wardrive-metro', seed=0, quiet=True, params=base); keys=('population','vendors','discovered','probed','responded','vendors_responded'); bad=[k for k in keys if killed.outputs[k]!=calm.outputs[k]]; assert not bad, f'recovered != undisturbed on {bad}'; assert killed.outputs['recoveries'] >= 1, 'chaos kill did not trigger a recovery'; print('metro chaos smoke OK:', killed.outputs['recoveries'], 'recovery,', killed.outputs['responded'], 'responded == undisturbed')"

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
