"""SweepSpec / RunConfig: validation, expansion, canonical hashing."""

import json

import pytest

from repro.sweep import RunConfig, SweepSpec, load_spec
from repro.sweep.spec import parse_gamma_policy


class TestGammaPolicy:
    def test_adaptive(self):
        assert parse_gamma_policy("adaptive") == ("adaptive", None)

    def test_fixed_with_step(self):
        assert parse_gamma_policy("fixed:0.05") == ("fixed", 0.05)

    @pytest.mark.parametrize(
        "policy", ["fixed", "fixed:", "fixed:abc", "fixed:-1", "linear:0.1", ""]
    )
    def test_rejects_malformed(self, policy):
        with pytest.raises(ValueError):
            parse_gamma_policy(policy)

    @pytest.mark.parametrize("policy", ["fixed:inf", "fixed:nan"])
    def test_rejects_a_step_fixed_gamma_rejects(self, policy):
        with pytest.raises(ValueError, match="gamma policy .* finite"):
            RunConfig(gamma=policy)


class TestRunConfig:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.workload == "base"
        assert config.method == "lrgp"

    def test_workload_spec_canonicalizes(self):
        assert RunConfig(workload="flows-x4").workload == "flows:factor=4"
        assert (
            RunConfig(workload="tree:flows=2,depth=4").workload
            == "tree:depth=4,flows=2"
        )

    def test_two_spellings_share_one_hash(self):
        a = RunConfig(workload="flows-x4")
        b = RunConfig(workload="flows:factor=4")
        assert a.config_hash() == b.config_hash()

    def test_salt_changes_hash(self):
        config = RunConfig()
        assert config.config_hash() != config.config_hash({"schema": 2})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            RunConfig(method="gradient-descent")

    def test_engine_on_non_engine_method_rejected(self):
        with pytest.raises(ValueError, match="does not take an engine"):
            RunConfig(method="annealing", engine="vectorized")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            RunConfig(engine="quantum")

    def test_gamma_on_non_gamma_method_rejected(self):
        with pytest.raises(ValueError, match="does not take a gamma"):
            RunConfig(method="annealing", gamma="fixed:0.1")

    def test_unknown_fault_plan_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan"):
            RunConfig(fault_plan=(("explosion_rate", 1.0),))

    @pytest.mark.parametrize(
        "plan",
        [
            (("crash_rate", -1.0),),
            (("crash_rate", float("nan")),),
            (("mean_downtime", float("nan")),),
            # The farm's default horizon is 400, so this warmup never ends.
            (("warmup", 500.0),),
            (("horizon", float("nan")),),
            (("horizon", float("inf")),),
            (("checkpoint_interval", float("nan")),),
        ],
        ids=[
            "negative-crash-rate", "nan-crash-rate", "nan-mean-downtime",
            "warmup-past-horizon", "nan-horizon", "inf-horizon", "nan-checkpoint",
        ],
    )
    def test_bad_fault_plan_value_rejected_at_construction(self, plan):
        with pytest.raises(ValueError):
            RunConfig(workload="micro", fault_plan=plan)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RunConfig(iterations=-1)

    def test_fault_plan_normalizes_sorted(self):
        config = RunConfig(
            fault_plan=(("warmup", 10), ("crash_rate", 0.1), ("horizon", 100))
        )
        assert config.fault_plan == (
            ("crash_rate", 0.1), ("horizon", 100.0), ("warmup", 10.0),
        )

    def test_round_trips_through_dict(self):
        config = RunConfig(
            workload="micro",
            method="lrgp",
            engine="vectorized",
            gamma="fixed:0.05",
            fault_plan=(("horizon", 100.0), ("crash_rate", 0.05)),
            iterations=40,
            seed=3,
            repeat=1,
        )
        clone = RunConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.config_hash() == config.config_hash()

    def test_label_is_compact_and_distinct(self):
        plain = RunConfig(workload="micro")
        seeded = RunConfig(workload="micro", seed=2)
        assert plain.label() == "micro/lrgp/i250"
        assert seeded.label() != plain.label()

    def test_is_picklable(self):
        import pickle

        config = RunConfig(workload="flows-x2", fault_plan=(("horizon", 50.0),))
        assert pickle.loads(pickle.dumps(config)) == config


class TestSweepSpec:
    def test_expand_is_cartesian_in_declared_order(self):
        spec = SweepSpec(
            workloads=("micro", "base"), iterations=(10, 20), seeds=(0,)
        )
        labels = [config.label() for config in spec.expand()]
        assert labels == [
            "micro/lrgp/i10",
            "micro/lrgp/i20",
            "base/lrgp/i10",
            "base/lrgp/i20",
        ]

    def test_engine_axis_collapses_for_non_engine_methods(self):
        spec = SweepSpec(
            workloads=("micro",),
            methods=("lrgp", "annealing"),
            engines=(None, "vectorized"),
            iterations=(10,),
        )
        cells = spec.expand()
        annealing = [c for c in cells if c.method == "annealing"]
        assert len(annealing) == 1  # duplicates dropped
        assert annealing[0].engine is None
        assert len([c for c in cells if c.method == "lrgp"]) == 2

    def test_gamma_axis_collapses_for_non_gamma_methods(self):
        spec = SweepSpec(
            workloads=("micro",),
            methods=("lrgp", "hill_climb"),
            gammas=("adaptive", "fixed:0.05"),
            iterations=(10,),
        )
        cells = spec.expand()
        assert len([c for c in cells if c.method == "hill_climb"]) == 1
        assert len([c for c in cells if c.method == "lrgp"]) == 2

    def test_repeats_produce_distinct_cells(self):
        spec = SweepSpec(workloads=("micro",), iterations=(10,), repeats=3)
        cells = spec.expand()
        assert [c.repeat for c in cells] == [0, 1, 2]
        assert len({c.config_hash() for c in cells}) == 3

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(
            workloads=("micro", "base"),
            methods=("lrgp", "annealing"),
            seeds=(0, 1),
            iterations=(10,),
        )
        assert [c.to_dict() for c in spec.expand()] == [
            c.to_dict() for c in spec.expand()
        ]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(workloads=())

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            SweepSpec(repeats=0)

    def test_round_trips_through_dict(self):
        spec = SweepSpec(
            workloads=("micro",),
            methods=("lrgp",),
            engines=(None, "vectorized"),
            fault_plans=(None, {"horizon": 100.0, "crash_rate": 0.05}),
            iterations=(10, 20),
            seeds=(0, 1),
            repeats=2,
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep-spec field"):
            SweepSpec.from_dict({"workloads": ["base"], "budget": 7})


class TestLoadSpec:
    def test_loads_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"workloads": ["micro"], "iterations": [10]})
        )
        spec = load_spec(path)
        assert spec.workloads == ("micro",)
        assert spec.iterations == (10,)

    def test_missing_file_reports_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read sweep spec"):
            load_spec(tmp_path / "nope.json")

    def test_unparseable_file_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="unparseable sweep spec"):
            load_spec(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_spec(path)
