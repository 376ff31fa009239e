"""Tests of the top-level public API surface.

A downstream user should be able to drive everything advertised in the
README through ``import repro`` — this pins that surface so refactors
cannot silently break it.
"""

import warnings

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_readme_quickstart_surface(self):
        problem = repro.base_workload()
        result = repro.solve(problem, method="lrgp", iterations=30)
        assert isinstance(result, repro.SolveResult)
        assert result.utility > 0.0
        assert repro.is_feasible(problem, result.allocation)
        assert repro.violations(problem, result.allocation) == []

    def test_stepwise_driver_surface(self):
        problem = repro.base_workload()
        optimizer = repro.LRGP(problem, repro.LRGPConfig.adaptive())
        optimizer.run(30)
        allocation = optimizer.allocation()
        assert repro.is_feasible(problem, allocation)
        assert repro.total_utility(problem, allocation) > 0.0

    def test_solve_surface(self):
        problem = repro.micro_workload()
        assert set(repro.available_methods()) >= {
            "lrgp",
            "multirate",
            "two_stage",
            "annealing",
            "hill_climb",
            "random_search",
            "coordinate",
        }
        result = repro.solve(
            problem, method="lrgp", engine="vectorized", iterations=40
        )
        # micro_workload sits below the vectorized crossover, so solve()
        # dispatches to the reference engine and records the substitution.
        assert result.engine == "reference"
        assert result.metadata["engine_fallback"]["requested"] == "vectorized"
        assert result.converged_at is None or result.converged_at <= 40
        assert result.to_dict()["method"] == "lrgp"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_workload_builders_exported(self):
        assert repro.micro_workload().describe().startswith("2 flows")
        assert len(repro.scale_flows(2).flows) == 12
        assert repro.link_bottleneck_workload(50.0).bottleneck_links() == (
            "uplink",
        )
        assert len(repro.generate_workload(seed=1).flows) == 6

    def test_optimizers_exported(self):
        problem = repro.micro_workload()
        multi = repro.MultirateLRGP(problem)
        multi.run(20)
        assert multi.utilities[-1] > 0.0
        result = repro.two_stage_optimize(problem, iterations=30)
        assert result.stage2_utility >= 0.0

    def test_workload_registry_is_the_front_door(self):
        assert set(repro.list_workloads()) >= {
            "micro",
            "base",
            "flows",
            "cnodes",
            "tree",
            "bottleneck",
            "generated",
        }
        by_name = repro.get_workload("tree", depth=2, flows=2)
        by_spec = repro.workload_from_spec("tree:depth=2,flows=2")
        assert by_name.describe() == by_spec.describe()

    def test_package_ships_type_marker(self):
        from pathlib import Path

        package_dir = Path(repro.__file__).parent
        assert (package_dir / "py.typed").exists()


class TestDeprecatedWorkloadSpellings:
    """The pre-registry names keep working, but only under a warning."""

    DEPRECATED = {
        "base-pow25": "base:shape=pow25",
        "base-pow50": "base:shape=pow50",
        "base-pow75": "base:shape=pow75",
        "link-bottleneck": "bottleneck",
    }

    @pytest.mark.parametrize(
        ("old", "replacement"), sorted(DEPRECATED.items())
    )
    def test_old_spelling_warns_and_still_builds(self, old, replacement):
        with pytest.warns(DeprecationWarning, match=replacement):
            problem = repro.workload_from_spec(old)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            canonical = repro.workload_from_spec(replacement)
        assert problem.describe() == canonical.describe()

    def test_stable_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            repro.workload_from_spec("flows-x2")
            repro.workload_from_spec("base:shape=pow50")


class TestSweepSurface:
    def test_sweep_package_surface(self, tmp_path):
        from repro.sweep import ResultCache, SweepSpec, run_sweep

        spec = SweepSpec(workloads=("micro",), iterations=(10,))
        cache = ResultCache(tmp_path / "cache")
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert first.executed == 1 and second.hits == 1
        assert (
            second.cells[0].payload["result"]
            == first.cells[0].payload["result"]
        )


class TestSubpackageImports:
    def test_every_subpackage_imports(self):
        import repro.baselines
        import repro.core
        import repro.events
        import repro.experiments
        import repro.model
        import repro.runtime
        import repro.sweep
        import repro.utility
        import repro.workloads

        for module in (
            repro.baselines, repro.core, repro.events, repro.experiments,
            repro.model, repro.runtime, repro.sweep, repro.utility,
            repro.workloads,
        ):
            assert module.__doc__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestImportFootprint:
    def test_import_repro_does_not_load_scipy(self):
        # A fresh interpreter: this test process may already hold scipy.
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro; assert 'scipy' not in sys.modules, "
                "sorted(m for m in sys.modules if m.startswith('scipy'))[:5]",
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
