"""``--param`` typos fail fast, on every front end.

Scenarios declare their parameter surface at registration (the keys
of ``param_schema``); a run passing any undeclared key raises
:class:`UnknownParameterError` *before* the scenario executes —
previously a typo'd key was silently ignored and the scenario ran at
its defaults, which is the worst possible failure mode for a sweep.
"""

from __future__ import annotations

import pytest

from repro.scenario import (
    REGISTRY,
    ScenarioRegistry,
    ScenarioSpec,
    UnknownParameterError,
    run_scenario,
)
from repro.telemetry import CampaignConfig, run_campaign


class TestRegistryValidation:
    def test_typo_fails_fast_with_the_valid_keys(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            run_scenario(
                "wardrive", params={"population_scal": 0.1}, quiet=True
            )
        message = str(excinfo.value)
        assert "population_scal" in message
        assert "population_scale" in message  # the fix is in the message

    def test_declared_params_still_pass(self):
        entry = REGISTRY.get("wardrive")
        entry.validate_params({"population_scale": 0.1, "table_top": 3})

    def test_parameterless_scenario_says_so(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            run_scenario("probe", params={"anything": 1}, quiet=True)
        assert "takes no parameters" in str(excinfo.value)

    def test_every_builtin_declares_its_surface(self):
        # Every scenario the library registers: each parameter has exactly
        # one schema entry, and its default sits in the template spec.
        builtins = {
            name: REGISTRY.get(name) for name in REGISTRY.names()
            if REGISTRY.get(name).fn.__module__ == "repro.scenario.library"
        }
        assert sorted(builtins) == [
            "battery", "deauth", "locate", "probe", "wardrive",
            "wardrive-full", "wardrive-metro",
        ]
        for name, entry in builtins.items():
            assert entry.spec.params.keys() == entry.param_schema.keys(), name
            for key, spec in entry.param_schema.items():
                assert entry.spec.params[key] == spec.default, (name, key)
        assert len(builtins["wardrive-metro"].param_schema) == 18
        assert sum(len(e.param_schema) for e in builtins.values()) == 40

    def test_undeclared_legacy_scenarios_skip_the_check(self):
        # No schema, no parameters: an undeclared scenario rejects every key.
        registry = ScenarioRegistry()

        @registry.register("legacy", spec=ScenarioSpec(seed=1))
        def legacy(ctx):
            return {"got": dict(ctx.params)}

        assert registry.run("legacy", quiet=True).outputs["got"] == {}
        with pytest.raises(UnknownParameterError, match="takes no parameters"):
            registry.run("legacy", params={"whatever": 1}, quiet=True)

    def test_error_carries_structured_fields(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            run_scenario("battery", params={"ratez": [1]}, quiet=True)
        err = excinfo.value
        assert err.scenario == "battery"
        assert err.unknown == ["ratez"]
        assert "rates_pps" in err.valid


class TestPathLossValidation:
    def test_misspelled_keys_fail_with_the_accepted_keys(self):
        # Both typos used to run silently at sigma 6.0 and exponent 3.0.
        with pytest.raises(ValueError) as excinfo:
            run_scenario(
                "probe",
                path_loss={"kind": "shadowed", "sigma": 4.0, "exponant": 2.8},
                quiet=True,
            )
        message = str(excinfo.value)
        assert "'exponant', 'sigma'" in message
        assert "kind, exponent, walls, sigma_db, seed" in message

    @pytest.mark.parametrize(
        "config, accepted",
        [
            ({"kind": "free_space", "exponent": 2.0}, "kind"),
            ({"kind": "log_distance", "sigma_db": 4.0}, "kind, exponent, walls"),
        ],
    )
    def test_each_kind_names_only_its_own_keys(self, config, accepted):
        with pytest.raises(ValueError, match=f"accepts: {accepted}$"):
            run_scenario("probe", path_loss=config, quiet=True)

    def test_unknown_kind_still_names_the_kind(self):
        with pytest.raises(ValueError, match="unknown path_loss kind 'urban'"):
            run_scenario("probe", path_loss={"kind": "urban"}, quiet=True)

    def test_every_accepted_key_still_builds(self):
        result = run_scenario(
            "probe",
            path_loss={
                "kind": "shadowed", "exponent": 2.8, "walls": 1,
                "sigma_db": 4.0, "seed": 99,
            },
            quiet=True,
        )
        model = result.ctx.medium._path_loss
        assert model.shadowing_sigma_db == 4.0
        assert model.base.exponent == 2.8


class TestCampaignValidation:
    def test_base_params_validated_before_forking(self):
        config = CampaignConfig(
            scenario="wardrive", seeds=[0], params={"bogus": 1}
        )
        with pytest.raises(UnknownParameterError):
            run_campaign(config)

    def test_grid_keys_validated_before_forking(self):
        config = CampaignConfig(
            scenario="wardrive", seeds=[0], grid={"bogus_sweep": [1, 2]}
        )
        with pytest.raises(UnknownParameterError):
            run_campaign(config)


class TestCliValidation:
    def test_run_exits_with_a_usage_error(self, capsys):
        from repro.__main__ import _run_one

        with pytest.raises(SystemExit) as excinfo:
            _run_one(["wardrive", "--quiet", "--param", "population_scal=0.1"])
        assert excinfo.value.code == 2
        stderr = capsys.readouterr().err
        assert "population_scal" in stderr
        assert "population_scale" in stderr

    def test_campaign_exits_with_a_usage_error(self, capsys):
        from repro.__main__ import _run_campaign

        with pytest.raises(SystemExit) as excinfo:
            _run_campaign(
                ["--scenario", "wardrive", "--seeds", "1",
                 "--param", "bogus=1"]
            )
        assert excinfo.value.code == 2
        assert "bogus" in capsys.readouterr().err
