# Convenience targets for the Polite WiFi reproduction.

PYTHON ?= python

.PHONY: install test coverage bench perf-ab demo examples examples-smoke campaign-smoke metro-smoke metro-chaos-smoke docs-check clean

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

# Perf gate: an A/B run of the end-to-end benchmark (benchmarks/e2e)
# against the commit BASE, on this machine.  BASE is checked out into a
# temporary worktree and gets this tree's benchmarks/e2e and
# BENCHMARK.json, so both sides run the same benchmark code.  census and
# flood each run in A B B A order (A = BASE, B = this tree) and the
# gate is `compare.py A1 B1 || compare.py A2 B2`: a `differs` row
# (digest, failed count, exact count) fails both pairs, and a `worse`
# row fails the gate only when it shows up in both.  A run whose
# correctness gate fails still writes its result file, so compare.py
# judges its failed count.  Result files land in
# benchmarks/e2e/out/perf-ab/.
perf-ab:
	@test -n "$(BASE)" || { echo "perf-ab: set BASE=<rev>, the commit to compare against (e.g. make perf-ab BASE=origin/main)" >&2; exit 2; }
	@set -e; \
	tmp=$$(mktemp -d); base=$$tmp/base; out=benchmarks/e2e/out/perf-ab; \
	trap 'git worktree remove --force "$$base" 2>/dev/null; rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add --detach "$$base" "$(BASE)"; \
	rm -rf "$$base/benchmarks/e2e" "$$out"; mkdir -p "$$base/benchmarks" "$$out"; \
	tar -cf - --exclude=benchmarks/e2e/out benchmarks/e2e BENCHMARK.json | tar -xf - -C "$$base"; \
	status=0; \
	for w in census flood; do \
		for run in a1 b1 b2 a2; do \
			case $$run in a*) tree=$$base;; *) tree=.;; esac; \
			echo "== perf-ab: $$w $$run"; \
			$(PYTHON) "$$tree/benchmarks/e2e/run.py" --workload $$w --seed 0 --trace 0 \
				--out "$$out/$$w-$$run.json" || true; \
		done; \
		$(PYTHON) benchmarks/e2e/compare.py "$$out/$$w-a1.json" "$$out/$$w-b1.json" \
			|| $(PYTHON) benchmarks/e2e/compare.py "$$out/$$w-a2.json" "$$out/$$w-b2.json" \
			|| status=1; \
	done; \
	if [ $$status = 0 ]; then echo "perf-ab OK against $(BASE)"; \
	else echo "perf-ab FAILED against $(BASE)" >&2; fi; \
	exit $$status

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
# serial and parallel, aggregates must match byte-for-byte, and
# `campaign status` must read the parallel run as done from its sidecar.
campaign-smoke:
	$(PYTHON) -m repro campaign --scenario wardrive --seeds 4 --workers 1 --out /tmp/campaign_smoke/w1/manifest.json > /dev/null
	$(PYTHON) -m repro campaign --scenario wardrive --seeds 4 --workers 4 --out /tmp/campaign_smoke/w4/manifest.json > /dev/null
	$(PYTHON) -m repro campaign status /tmp/campaign_smoke/w4 --json > /tmp/campaign_smoke/status.json
	$(PYTHON) -c "import json; a=json.load(open('/tmp/campaign_smoke/w1/manifest.json'))['aggregate']; b=json.load(open('/tmp/campaign_smoke/w4/manifest.json'))['aggregate']; assert json.dumps(a,sort_keys=True)==json.dumps(b,sort_keys=True), 'aggregate mismatch'; s=json.load(open('/tmp/campaign_smoke/status.json')); seen=(s['state'],s['scenario'],s['plan_runs']); assert seen==('done','wardrive',4), f'campaign status: {seen}'; print('campaign smoke OK:', a['metrics']['counters']['engine.events.executed'], 'events')"

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
	rm -rf .pytest_cache .hypothesis benchmarks/e2e/out
	find . -name __pycache__ -type d -exec rm -rf {} +
