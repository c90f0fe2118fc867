"""The admission policy as a first-class scenario parameter.

``params.policy`` must round-trip through scenario files, expand as a
sweep axis, surface did-you-mean errors at validation time (not mid-run),
be rejected by architectures that have no policy knob, and show up in
executed results as the ``policy_drops`` statistic.
"""

import json

import pytest

from repro.scenario import (
    Scenario,
    ScenarioError,
    load_scenarios,
    run_scenario,
    validate_scenario,
)


def _pipelined(policy=None, arch="pipelined_fast", **over):
    params = {"n": 4, "addresses": 16}
    if policy is not None:
        params["policy"] = policy
    spec = dict(
        name="pol", arch=arch, horizon=2000, warmup=200, params=params,
        traffic={"kind": "renewal_tape", "load": 0.9}, seeds=[3],
    )
    spec.update(over)
    return Scenario.from_dict(spec)


class TestSpecPlane:
    def test_policy_param_round_trips_through_json(self, tmp_path):
        sc = _pipelined("dynamic:alpha=1.0")
        path = tmp_path / "pol.json"
        path.write_text(json.dumps(sc.to_dict()))
        (loaded,) = load_scenarios(path)
        assert loaded == sc
        assert loaded.params["policy"] == "dynamic:alpha=1.0"

    def test_policy_param_loads_from_toml(self, tmp_path):
        path = tmp_path / "pol.toml"
        path.write_text(
            'name = "pol"\narch = "pipelined_fast"\nhorizon = 1000\n'
            '[params]\nn = 4\naddresses = 16\npolicy = "static:cap=4"\n'
            '[traffic]\nkind = "renewal_tape"\nload = 0.9\n'
        )
        (sc,) = load_scenarios(path)
        assert sc.params["policy"] == "static:cap=4"
        validate_scenario(sc)

    def test_policy_is_a_sweep_axis(self):
        base = _pipelined("complete")
        grid = {"params.policy": ["complete", "dynamic:alpha=1.0"]}
        cells = base.expand(grid)
        assert [sc.params["policy"] for sc in cells] == [
            "complete", "dynamic:alpha=1.0",
        ]
        assert len({sc.name for sc in cells}) == 2  # distinct cell names

    def test_bad_policy_rejected_at_validation(self):
        with pytest.raises(ScenarioError, match="did you mean 'dynamic'"):
            validate_scenario(_pipelined("dynamc:alpha=1.0"))
        with pytest.raises(ScenarioError, match="missing parameter"):
            validate_scenario(_pipelined("static"))

    def test_arch_without_policy_knob_rejects_it(self):
        sc = Scenario.from_dict(dict(
            name="pol", arch="wide", horizon=1000,
            params={"n": 4, "policy": "complete"},
            traffic={"kind": "renewal", "load": 0.5},
        ))
        with pytest.raises(ScenarioError, match="policy"):
            validate_scenario(sc)


class TestExecution:
    def test_policy_drops_in_results(self):
        result = run_scenario(_pipelined("static:cap=2"), seed=3)
        assert result["stats"]["policy_drops"] > 0

    def test_complete_sharing_reports_zero_policy_drops(self):
        result = run_scenario(_pipelined("complete"), seed=3)
        assert result["stats"]["policy_drops"] == 0
        # ... and is bit-identical to a spec with no policy at all
        seed_result = run_scenario(_pipelined(), seed=3)
        assert result["stats"] == seed_result["stats"]

    def test_shared_arch_threads_policy(self):
        sc = Scenario.from_dict(dict(
            name="pol-slotted", arch="shared", horizon=3000, warmup=1000,
            params={"n": 4, "capacity": 12, "policy": "dynamic:alpha=0.5"},
            traffic={"kind": "hotspot", "load": 0.9}, seeds=[1],
        ))
        stats = run_scenario(sc, seed=1)["stats"]
        assert stats["policy_drops"] > 0
        # policy drops count over the same window as `dropped`
        assert stats["policy_drops"] <= stats["dropped"]

    def test_shared_arch_infinite_pool_refuses_policy(self):
        sc = Scenario.from_dict(dict(
            name="pol-slotted", arch="shared", horizon=1000,
            params={"n": 4, "policy": "dynamic:alpha=0.5"},
            traffic={"kind": "uniform", "load": 0.5},
        ))
        with pytest.raises(Exception, match="finite"):
            run_scenario(sc, seed=1)
