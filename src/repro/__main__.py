"""Command-line runner: ``python -m repro [demo|run ...|campaign ...]``.

Gives a new user one command per headline result:

* ``probe``      — the Figure 2 fake-frame → ACK exchange (default);
* ``deauth``     — Figure 3: the AP barks and ACKs anyway;
* ``battery``    — a quick Figure 6 power sweep;
* ``locate``     — ACK-timing localization of a victim device;
* ``survey``     — a small wardriving survey (Table 2 shape);

plus the scenario runner (any registered scenario, see
``docs/scenarios.md``)::

    python -m repro run wardrive --seed 7 --param population_scale=0.05
    python -m repro run --list

and the campaign orchestrator (see ``docs/telemetry.md``)::

    python -m repro campaign --scenario wardrive --seeds 8 --workers 4 \
        --out manifest.json

and the control plane (see ``docs/control-plane.md``), which watches
a campaign from its directory and diffs two manifests::

    python -m repro campaign status sweep/
    python -m repro campaign compare sweep/manifest.json other.json

The full, narrated versions live in ``examples/``; the full-scale
reproductions in ``benchmarks/``.

The demos are themselves registered scenarios — each demo command is
just ``run <scenario>`` with the demo's historical seed and parameters.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.scenario import available_scenarios, run_scenario


def _demo_probe() -> int:
    result = run_scenario("probe")
    return 0 if result.outputs["responded"] else 1


def _demo_deauth() -> int:
    run_scenario("deauth")
    return 0


def _demo_battery() -> int:
    run_scenario(
        "battery",
        params={"rates_pps": (0, 10, 50, 200, 900), "duration_s": 5.0},
    )
    return 0


def _demo_locate() -> int:
    run_scenario("locate")
    return 0


def _demo_survey() -> int:
    run_scenario(
        "wardrive",
        params={
            "population_scale": 0.05,
            "keep_all_vendors": False,
            "blocks_x": 4,
            "blocks_y": 3,
            "beacon_interval": 0.35,
            "vehicle_speed_mps": 11.0,
        },
    )
    return 0


_DEMOS = {
    "probe": _demo_probe,
    "deauth": _demo_deauth,
    "battery": _demo_battery,
    "locate": _demo_locate,
    "survey": _demo_survey,
}


def _parse_seeds(text: str):
    """``"8"`` is a seed count (seeds 0..7); ``"3,5,9"`` are exactly those
    seeds.  The campaign spec parser expands and checks both."""
    try:
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a seed count or comma-separated seeds, got {text!r}"
        ) from None


def _parse_param(text: str):
    """``key=value`` -> (key, value string); the scenario's schema, not
    the command line, decides the value's type."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key, raw


def _parse_grid(text: str):
    """``key=v1,v2,v3`` -> (key, [value strings]), each coerced later by
    the schema like a ``--param`` value (so a list-valued parameter,
    whose own values use commas, cannot be swept this way)."""
    key, sep, raw = text.partition("=")
    values = [part for part in raw.split(",") if part.strip()]
    if not sep or not key or not values:
        raise argparse.ArgumentTypeError(
            f"expected KEY=V1,V2,... got {text!r}"
        )
    return key, values


def _run_one(argv) -> int:
    """``python -m repro run <scenario>`` — launch any registered scenario."""
    from repro.scenario import REGISTRY

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run one registered scenario, narrated",
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered scenarios with their parameters and exit",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's default seed",
    )
    parser.add_argument(
        "--param", action="append", type=_parse_param, default=[],
        metavar="KEY=VALUE", help="scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the outputs dict as JSON (narration still precedes it)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress scenario narration"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in available_scenarios():
            entry = REGISTRY.get(name)
            print(f"{name:<15} {entry.description}")
            for key, spec in entry.param_schema.items():
                default = entry.spec.params[key]
                shown = "unset" if default is None else json.dumps(default)
                print(f"    {key:<22} {spec.describe()}; default {shown}")
        return 0
    if args.scenario is None:
        parser.error("a scenario name is required (or --list)")
    if args.scenario not in available_scenarios():
        parser.error(
            f"unknown scenario {args.scenario!r}; "
            f"registered: {', '.join(available_scenarios())}"
        )
    from repro.scenario import ParameterValueError, UnknownParameterError

    try:
        result = run_scenario(
            args.scenario,
            seed=args.seed,
            params=dict(args.param),
            quiet=args.quiet,
        )
    except (ParameterValueError, UnknownParameterError) as exc:
        parser.error(str(exc))
    if args.json:
        print(json.dumps(result.outputs, sort_keys=True, default=str))
    else:
        print()
        for key, value in sorted(result.outputs.items()):
            print(f"  {key:<20} {value}")
    return 0


def _campaign_status(argv) -> int:
    """``python -m repro campaign status <dir>`` — status from disk."""
    from repro.control import fleet_status, render_fleet_status
    from repro.telemetry import status_to_json

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign status",
        description="Reconstruct a campaign's status from the sidecar "
        "and manifest in its directory; works against running, "
        "finished, and crashed campaigns",
    )
    parser.add_argument(
        "dir",
        help="campaign directory: where --out wrote the manifest and its "
        ".runs.jsonl sidecar",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the snapshot as JSON"
    )
    parser.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="report the campaign as stalled after this much silence "
        "(default: 4 heartbeat intervals, as the sidecar records them; "
        "30s when heartbeats are off)",
    )
    args = parser.parse_args(argv)
    try:
        status = fleet_status(args.dir, stall_after_s=args.stall_after)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(status_to_json(status), end="")
    else:
        print(render_fleet_status(status))
    return 0


def _compare_campaign(argv) -> int:
    """``python -m repro campaign compare A B`` — diff two manifests."""
    from repro.telemetry import (
        compare_manifest_files,
        format_comparison,
        status_to_json,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign compare",
        description="Compare two campaign manifests: identity (scenario, "
        "seeds, params, grid), aggregate, and per-run outputs must all "
        "match for exit 0; host fields (git rev, durations, workers) "
        "are reported but never fail the compare",
    )
    parser.add_argument("manifest_a", metavar="A", help="baseline manifest")
    parser.add_argument("manifest_b", metavar="B", help="candidate manifest")
    parser.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    args = parser.parse_args(argv)
    try:
        report = compare_manifest_files(args.manifest_a, args.manifest_b)
    except ValueError as exc:
        parser.error(str(exc))
    if args.json:
        print(status_to_json(report), end="")
    else:
        print(format_comparison(report))
    return 0 if report["match"] else 1


def _add_campaign_flags(parser) -> None:
    """Declare the flags that define a campaign: one per campaign spec
    field, each stored under that field's name and defaulting to
    ``None`` (so a spec file's value stands unless a flag is given)."""
    parser.add_argument(
        "--scenario", default=None, choices=available_scenarios(),
        help="registered scenario to run (default: wardrive)",
    )
    parser.add_argument(
        "--seeds", type=_parse_seeds, default=None,
        help="seed count (N -> seeds 0..N-1) or explicit comma list",
    )
    parser.add_argument(
        "--param", dest="params", action="append", type=_parse_param,
        default=[], metavar="KEY=VALUE",
        help="scenario parameter (repeatable)",
    )
    parser.add_argument(
        "--grid", action="append", type=_parse_grid, default=[],
        metavar="KEY=V1,V2", help="sweep a parameter over these values "
        "(repeatable; the campaign runs the cross product per seed)",
    )
    parser.add_argument("--name", default=None, help="campaign name for the manifest")
    parser.add_argument(
        "--timeout", dest="run_timeout_s", type=float, default=None,
        metavar="SECONDS",
        help="per-attempt wall-clock budget for one run (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts for a run that raises or times out "
        "(default: 0)",
    )
    parser.add_argument(
        "--retry-backoff", dest="retry_backoff_s", type=float, default=None,
        metavar="SECONDS",
        help="sleep SECONDS * attempt between retries (default: 0)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "record"), default=None,
        help="after retries are exhausted: abort the campaign ('raise', "
        "default) or record the failed run in the manifest ('record')",
    )
    parser.add_argument(
        "--heartbeat", dest="heartbeat_s", type=float, default=None,
        metavar="SECONDS",
        help="interval between liveness records in the sidecar "
        "(default: 30; 0 disables)",
    )


def _campaign_config(parser, args, spec, **overrides):
    """The campaign flags given on the command line over ``spec`` (a
    spec file's content, or the defaults), read by the spec parser.
    ``overrides`` are the per-process knobs; a bad value is a usage
    error."""
    from repro.telemetry.campaign import SPEC_FIELDS, CampaignConfig

    flags = {key: getattr(args, key) for key in SPEC_FIELDS}
    flags["params"] = dict(flags["params"]) or None
    flags["grid"] = dict(flags["grid"]) or None
    given = {key: value for key, value in flags.items() if value is not None}
    if given.get("heartbeat_s", 1.0) <= 0:
        given["heartbeat_s"] = None  # --heartbeat 0 disables heartbeats
    try:
        config = CampaignConfig.from_spec_dict({**spec, **given}, **overrides)
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _campaign_command(argv):
    """Parse ``python -m repro campaign`` into (parser, args,
    CampaignConfig), validated; nothing is run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Fan a scenario out across seeds and aggregate metrics "
        "(subcommands: status a campaign directory, compare two "
        "manifests)",
    )
    _add_campaign_flags(parser)
    parser.add_argument(
        "--spec-file", default=None, metavar="PATH",
        help="read the campaign definition (scenario, seeds, params, "
        "grid, run policy) from this JSON spec instead of flags; "
        "values stay typed JSON, not re-parsed strings (--name and "
        "run-policy flags override the spec's)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (default: 1 = run inline)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON run manifest here (per-run records stream "
        "to PATH.runs.jsonl as runs complete)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="reuse (seed, params) runs already recorded in the JSONL "
        "sidecar (or manifest) at --out instead of re-executing them",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.out:
        parser.error("--resume requires --out (the manifest to resume from)")
    spec = {"scenario": "wardrive", "heartbeat_s": 30.0}
    if args.spec_file is not None:
        for flag, value in (
            ("--scenario", args.scenario),
            ("--seeds", args.seeds is not None),
            ("--param", args.params),
            ("--grid", args.grid),
        ):
            if value:
                parser.error(
                    f"{flag} conflicts with --spec-file; the spec defines "
                    f"the campaign"
                )
        try:
            spec = json.loads(
                pathlib.Path(args.spec_file).read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read campaign spec {args.spec_file}: {exc}")
        if not isinstance(spec, dict):
            parser.error(f"campaign spec {args.spec_file} is not a JSON object")
    config = _campaign_config(
        parser,
        args,
        spec,
        workers=args.workers,
        output_path=args.out,
        resume=args.resume,
    )
    return parser, args, config


def _run_campaign(argv) -> int:
    if argv and argv[0] == "status":
        return _campaign_status(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_campaign(argv[1:])
    from repro.telemetry import CampaignRunError, run_campaign, summarize_manifest

    parser, args, config = _campaign_command(argv)
    try:
        manifest = run_campaign(config)
    except CampaignRunError as exc:
        print(f"campaign aborted: {exc}", file=sys.stderr)
        if args.out:
            print(
                "[completed runs are preserved in the sidecar; re-run with "
                "--resume to continue]",
                file=sys.stderr,
            )
        return 1
    except ValueError as exc:
        parser.error(str(exc))
    if manifest.get("resumed_runs"):
        print(f"[resumed: {manifest['resumed_runs']} run(s) reused from {args.out}]")
    print(summarize_manifest(manifest))
    if args.out:
        print(f"\n[manifest written to {args.out}]")
    return 0 if not manifest["failed_runs"] else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "campaign":
        return _run_campaign(argv[1:])
    if argv and argv[0] == "run":
        return _run_one(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Polite WiFi reproduction demos and scenario/campaign runner",
    )
    parser.add_argument(
        "demo", nargs="?", default="probe",
        choices=sorted(_DEMOS) + ["run", "campaign"],
        help="which demo to run (default: probe), 'run <scenario>' for "
        "any registered scenario, or 'campaign ...' for the parallel "
        "campaign orchestrator",
    )
    args = parser.parse_args(argv)
    return _DEMOS[args.demo]()


if __name__ == "__main__":
    sys.exit(main())
