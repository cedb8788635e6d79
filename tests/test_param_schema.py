"""Typed parameter schemas: coercion, range checks, and their plumbing.

A scenario's schema is the one declaration of its parameters.  Its keys
catch *typos* (covered in ``test_param_validation.py``); its specs catch
*wrong values* — and, just as importantly, coerce the strings that
arrive from ``--param`` and HTTP JSON into their declared types before a
scenario (or a campaign grid) runs; its defaults land in the template
spec and so in the fingerprint.  Pinned here: every spec type's
conversion and bounds behaviour, the registry integration, campaign-level
coercion of base params and grid values, the library scenarios' guard
rails, and the CLI surface.
"""

import json

import pytest

import tests.control_scenarios  # noqa: F401 - registers ctl-noop
from repro.__main__ import main
from repro.scenario import (
    BoolParam,
    ChoiceParam,
    FloatListParam,
    FloatParam,
    IntParam,
    ParameterValueError,
    ScenarioRegistry,
    StrParam,
    run_scenario,
    scenario,
)
from repro.scenario.registry import RegisteredScenario, UnknownParameterError
from repro.scenario.spec import ScenarioSpec
from repro.telemetry import CampaignConfig, run_campaign


@scenario("unit-cli-echo", param_schema={"tag": StrParam(default="none")})
def _echo(ctx):
    """Reports the type its string parameter arrived as."""
    return {"tag": ctx.params["tag"], "tag_type": type(ctx.params["tag"]).__name__}


class TestSpecCoercion:
    def test_int_accepts_strings_and_integral_floats(self):
        spec = IntParam(minimum=1, maximum=10)
        assert spec.coerce("s", "n", "5") == 5
        assert spec.coerce("s", "n", 7.0) == 7
        assert spec.coerce("s", "n", 3) == 3

    @pytest.mark.parametrize("bad", ["1.5", 1.5, True, "x", None])
    def test_int_rejects_non_integers(self, bad):
        with pytest.raises(ParameterValueError):
            IntParam().coerce("s", "n", bad)

    def test_int_bounds_name_the_violated_limit(self):
        with pytest.raises(ParameterValueError, match=">= 1"):
            IntParam(minimum=1).coerce("s", "n", 0)
        with pytest.raises(ParameterValueError, match="<= 10"):
            IntParam(maximum=10).coerce("s", "n", 11)

    def test_float_exclusive_minimum(self):
        spec = FloatParam(minimum=0.0, exclusive_minimum=True)
        assert spec.coerce("s", "n", "0.25") == 0.25
        with pytest.raises(ParameterValueError, match="> 0"):
            spec.coerce("s", "n", 0.0)

    def test_float_rejects_nan(self):
        with pytest.raises(ParameterValueError, match="finite"):
            FloatParam().coerce("s", "n", float("nan"))

    @pytest.mark.parametrize(
        "word,expected",
        [("true", True), ("NO", False), ("on", True), ("0", False), (1, True)],
    )
    def test_bool_word_forms(self, word, expected):
        assert BoolParam().coerce("s", "n", word) is expected

    def test_bool_rejects_other_values(self):
        with pytest.raises(ParameterValueError, match="boolean"):
            BoolParam().coerce("s", "n", "maybe")

    def test_choice_matches_values_and_their_strings(self):
        spec = ChoiceParam((2, 4, 8))
        assert spec.coerce("s", "n", 4) == 4
        assert spec.coerce("s", "n", "8") == 8  # string selects int choice
        with pytest.raises(ParameterValueError, match="one of 2, 4, 8"):
            spec.coerce("s", "n", 3)

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("0,50", [0.0, 50.0]),
            (" 0, 50 ", [0.0, 50.0]),
            ("[0, 2.5]", [0.0, 2.5]),
            ("50", [50.0]),
            (50, [50.0]),
            ((0, 900), [0.0, 900.0]),
        ],
    )
    def test_float_list_forms(self, raw, expected):
        assert FloatListParam(minimum=0.0).coerce("s", "r", raw) == expected

    @pytest.mark.parametrize("bad", ["0,,50", "[0, 50", "", [], "x", [1, True]])
    def test_float_list_rejects_malformed_values(self, bad):
        with pytest.raises(ParameterValueError):
            FloatListParam().coerce("s", "r", bad)

    def test_float_list_range_checks_every_element(self):
        with pytest.raises(ParameterValueError, match="every element must be >= 0"):
            FloatListParam(minimum=0.0).coerce("s", "r", "0,-5")

    def test_str_passes_strings_only(self):
        assert StrParam().coerce("s", "n", "hi") == "hi"
        with pytest.raises(ParameterValueError):
            StrParam().coerce("s", "n", 3)

    def test_error_names_scenario_param_and_value(self):
        with pytest.raises(
            ParameterValueError,
            match=r"invalid value -3 for parameter 'n' of scenario 'sweep'",
        ):
            IntParam(minimum=0).coerce("sweep", "n", -3)


class TestRegistryIntegration:
    def _registry(self):
        registry = ScenarioRegistry()

        @registry.register(
            "schema-demo",
            param_schema={
                "count": IntParam(minimum=1),
                "scale": FloatParam(minimum=0.0, exclusive_minimum=True),
            },
        )
        def demo(ctx):
            return {
                "count_type": type(ctx.params["count"]).__name__,
                "scale_type": type(ctx.params["scale"]).__name__,
            }

        return registry

    def test_run_coerces_string_params_to_declared_types(self):
        result = self._registry().run(
            "schema-demo", params={"count": "3", "scale": "0.5"}
        )
        assert result.outputs == {"count_type": "int", "scale_type": "float"}

    def test_schema_keys_become_the_declared_surface(self):
        with pytest.raises(UnknownParameterError, match="typo"):
            self._registry().run("schema-demo", params={"typo": 1, "count": 1})

    def test_schema_key_outside_param_names_is_a_registration_error(self):
        # The schema is the only declaration: a default that fails its
        # own spec, or a default smuggled in through the template spec,
        # is refused at registration.
        registry = ScenarioRegistry()
        with pytest.raises(ParameterValueError, match="'b' of scenario 'bad'"):
            registry.register("bad", param_schema={"b": IntParam(minimum=1, default=0)})
        with pytest.raises(ValueError, match="declare parameter defaults"):
            registry.register(
                "bad", spec=ScenarioSpec(params={"b": 2}),
                param_schema={"b": IntParam()},
            )

    def test_defaults_are_stamped_into_the_template_spec(self):
        registry = ScenarioRegistry()
        registry.register(
            "defaults", param_schema={"n": IntParam(default=3), "cap": IntParam()}
        )(lambda ctx: dict(ctx.params))
        assert registry.get("defaults").spec.params == {"n": 3, "cap": None}
        assert registry.run("defaults").outputs == {"n": 3, "cap": None}
        assert registry.run("defaults", params={"n": "5"}).outputs["n"] == 5

    def test_fingerprint_covers_the_schema(self):
        def fn(ctx):
            return {}

        spec = ScenarioSpec()
        plain = RegisteredScenario("x", fn, spec)
        schemed = RegisteredScenario("x", fn, spec, param_schema={"n": IntParam()})
        assert plain.fingerprint() != schemed.fingerprint()

    def test_changing_a_default_changes_the_fingerprint(self):
        def fingerprint(default):
            registry = ScenarioRegistry()
            registry.register(
                "x", param_schema={"n": IntParam(default=default)}
            )(lambda ctx: {})
            return registry.get("x").fingerprint()

        assert fingerprint(4) == fingerprint(4)
        assert fingerprint(4) != fingerprint(5)


class TestCampaignCoercion:
    def test_base_params_and_grid_values_coerce_before_running(self):
        manifest = run_campaign(
            CampaignConfig(
                scenario="ctl-noop",
                seeds=[0],
                params={"sleep_s": "0"},
                grid={"draws": ["2", "3"]},
            )
        )
        draws = [run["params"]["draws"] for run in manifest["runs"]]
        assert draws == [2, 3]
        assert all(isinstance(d, int) for d in draws)
        assert all(
            run["params"]["sleep_s"] == 0.0 for run in manifest["runs"]
        )

    def test_bad_grid_value_fails_before_any_run(self):
        with pytest.raises(ParameterValueError, match="draws"):
            run_campaign(
                CampaignConfig(
                    scenario="ctl-noop", seeds=[0], grid={"draws": [2, 0]}
                )
            )


class TestLibraryGuardRails:
    def test_wardrive_population_scale_must_be_positive(self):
        with pytest.raises(ParameterValueError, match="population_scale"):
            run_scenario("wardrive", params={"population_scale": 0.0})

    def test_wardrive_population_scale_is_capped_at_one(self):
        with pytest.raises(ParameterValueError, match="<= 1"):
            run_scenario("wardrive", params={"population_scale": 1.5})

    def test_battery_duration_must_be_positive(self):
        with pytest.raises(ParameterValueError, match="duration_s"):
            run_scenario("battery", params={"duration_s": -1.0})

    def test_locate_probes_per_anchor_is_an_int(self):
        with pytest.raises(ParameterValueError, match="probes_per_anchor"):
            run_scenario("locate", params={"probes_per_anchor": "many"})


class TestCliSurface:
    def test_run_rejects_bad_param_value_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "battery", "--param", "duration_s=-5"])
        assert excinfo.value.code == 2
        assert "duration_s" in capsys.readouterr().err

    def test_campaign_rejects_bad_param_value_as_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "campaign",
                    "--scenario",
                    "battery",
                    "--param",
                    "duration_s=-5",
                ]
            )
        assert excinfo.value.code == 2
        assert "duration_s" in capsys.readouterr().err

    def test_param_strings_reach_a_str_param_untouched(self, capsys):
        # The command line passes strings; only the schema decides types.
        assert main(["run", "unit-cli-echo", "--quiet", "--json",
                     "--param", "tag=123"]) == 0
        outputs = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert outputs == {"tag": "123", "tag_type": "str"}

    @pytest.mark.parametrize("rates", ["0,50", "50"])
    def test_battery_rates_pps_from_the_command_line(self, rates, capsys):
        assert main(["run", "battery", "--quiet", "--json",
                     "--param", f"rates_pps={rates}",
                     "--param", "duration_s=0.5"]) == 0
        outputs = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert outputs["acks_transmitted"] == outputs["frames_received"] > 0

    def test_list_prints_each_param_with_constraint_and_default(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "rates_pps" in out and "a list of numbers (>= 0.0)" in out
        assert "default [0.0, 50.0, 200.0]" in out
        metro = out.split("wardrive-metro")[1]
        assert "max_devices" in metro and "default unset" in metro
