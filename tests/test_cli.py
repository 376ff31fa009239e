"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import load_problem, main
from repro.model.serialization import allocation_from_json, problem_from_json
from repro.workloads.registry import list_aliases


class TestLoadProblem:
    def test_every_builtin_loads(self):
        names = [*list_aliases(), "base", "trade-data", "latest-price",
                 "tree", "micro"]
        for name in names:
            problem = load_problem(name)
            assert problem.flows

    def test_json_path_loads(self, tmp_path):
        from repro.model.serialization import problem_to_json
        from tests.conftest import make_tiny_problem

        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(make_tiny_problem()))
        problem = load_problem(str(path))
        assert set(problem.flows) == {"fa", "fb"}

    def test_unknown_spec_exits(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            load_problem("no-such-thing")

    def test_unknown_shape_is_reported_as_a_shape(self):
        with pytest.raises(
            SystemExit, match=r"^unknown utility shape 'bogus'; expected one of"
        ):
            main(["optimize", "leafspine:shape=bogus", "--iterations", "5"])


class TestOptimizeCommand:
    def test_prints_summary(self, capsys):
        assert main(["optimize", "base", "--iterations", "40"]) == 0
        out = capsys.readouterr().out
        assert "utility:" in out
        assert "feasible:   True" in out
        assert "f0:" in out

    def test_multirate_flag(self, capsys):
        assert main(
            ["optimize", "micro", "--iterations", "60", "--multirate"]
        ) == 0
        out = capsys.readouterr().out
        assert "(multirate)" in out
        assert "local delivery rates" in out

    def test_multirate_thins_on_heterogeneous_workload(self, tmp_path, capsys):
        from repro.model.serialization import problem_to_json
        from repro.workloads.base import base_workload

        problem = base_workload().with_node_capacity("S1", 9.0e4)
        path = tmp_path / "hetero.json"
        path.write_text(problem_to_json(problem))
        assert main(
            ["optimize", str(path), "--iterations", "150", "--multirate"]
        ) == 0
        assert "(thinned)" in capsys.readouterr().out

    def test_fixed_gamma_flag(self, capsys):
        assert main(
            ["optimize", "base", "--iterations", "30", "--gamma", "0.05"]
        ) == 0
        assert "stable by" in capsys.readouterr().out

    def test_bad_gamma_exits_with_the_message(self):
        with pytest.raises(SystemExit, match="gamma must be finite"):
            main(["optimize", "micro", "--gamma", "-1"])

    def test_writes_allocation_and_trace(self, tmp_path, capsys):
        allocation_path = tmp_path / "alloc.json"
        trace_path = tmp_path / "trace.csv"
        assert main(
            [
                "optimize", "base",
                "--iterations", "20",
                "-o", str(allocation_path),
                "--trace", str(trace_path),
            ]
        ) == 0
        allocation = allocation_from_json(allocation_path.read_text())
        assert set(allocation.rates) == {f"f{i}" for i in range(6)}
        lines = trace_path.read_text().splitlines()
        assert lines[0].startswith("iteration,utility,rate:f0")
        assert len(lines) == 21  # header + 20 iterations


class TestWorkloadCommand:
    def test_roundtrip_via_file(self, tmp_path, capsys):
        path = tmp_path / "base.json"
        assert main(["workload", "base", "-o", str(path)]) == 0
        problem = problem_from_json(path.read_text())
        assert len(problem.classes) == 20

    def test_prints_to_stdout(self, capsys):
        assert main(["workload", "trade-data"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1


class TestExperimentCommands:
    def test_figure(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Base workload" in capsys.readouterr().out

    def test_extension_e3(self, capsys):
        assert main(["extension", "e3"]) == 0
        assert "Extension E3" in capsys.readouterr().out

    def test_extension_e4(self, capsys):
        assert main(["extension", "e4"]) == 0
        assert "Extension E4" in capsys.readouterr().out

    def test_extension_e5_renders_figure(self, capsys):
        assert main(["extension", "e5"]) == 0
        out = capsys.readouterr().out
        assert "Extension E5" in out
        assert "flow f5 leaves" in out

    def test_extension_e7(self, capsys):
        assert main(["extension", "e7"]) == 0
        assert "Extension E7" in capsys.readouterr().out

    def test_extension_e8(self, capsys):
        assert main(["extension", "e8"]) == 0
        out = capsys.readouterr().out
        assert "Extension E8" in out
        assert "checkpoint restart" in out

    def test_tree_and_micro_workloads_available(self, capsys):
        assert main(["workload", "tree"]) == 0
        capsys.readouterr()
        assert main(["workload", "micro"]) == 0

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestStatsCommand:
    def test_human_output_has_metrics_and_diagnostics(self, capsys):
        assert main(["stats", "micro", "--iterations", "80"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "lrgp.iterations: 80" in out
        assert "convergence diagnostics" in out
        assert "stable by iteration" in out

    def test_json_output_is_parseable(self, capsys):
        assert main(
            ["stats", "micro", "--iterations", "60", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workload"] == "micro"
        assert payload["metrics"]["counters"]["lrgp.iterations"] == 60
        assert "converged" in payload["diagnostics"]

    def test_prometheus_output(self, capsys):
        assert main(
            ["stats", "micro", "--iterations", "30", "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_lrgp_iterations_total counter" in out
        assert "repro_lrgp_iterations_total 30" in out

    def test_sync_engine(self, capsys):
        assert main(
            ["stats", "micro", "--iterations", "30", "--engine", "sync"]
        ) == 0
        assert "runtime.sync.rounds: 30" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["stats", "micro", "--iterations", "20", "--format", "json",
             "-o", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["metrics"]["counters"]["lrgp.iterations"] == 20

    def test_timings_are_phase_metrics(self, capsys):
        assert main(
            ["stats", "base", "--iterations", "20", "--format", "prometheus"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_profile_phase_solve_iteration_total_seconds" in out
        assert "repro_profile_phase_solve_iteration_calls_total 20" in out
        assert "repro_lrgp_iteration_bucket" not in out


class TestChaosCommand:
    ARGS = [
        "chaos", "micro",
        "--horizon", "120", "--crash-rate", "0.03", "--warmup", "40",
    ]

    def test_human_report(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "utility:" in out
        assert "recoveries:" in out

    def test_json_report_is_machine_readable(self, capsys):
        assert main([*self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["crashes"] >= 1
        assert payload["retention"] == pytest.approx(1.0, rel=0.05)
        assert payload["recoveries"]
        assert payload["recoveries"][0]["from_checkpoint"] is True

    def test_json_report_matches_the_sweep_fault_cell(self, capsys):
        from repro.sweep import RunConfig, execute_run

        assert main([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        cell = execute_run(
            RunConfig(
                workload="micro",
                seed=0,
                fault_plan=(
                    ("horizon", 120.0), ("crash_rate", 0.03), ("warmup", 40.0),
                ),
            )
        )
        assert report["utility"] == cell["result"]["utility"]
        assert report["baseline_utility"] == cell["result"]["baseline_utility"]
        assert report["retention"] == cell["metrics"]["retention"]
        assert report["plan"] == cell["result"]["plan"]
        assert report["counters"] == cell["result"]["counters"]

    def test_baseline_is_the_same_deployment_without_a_plan(self, capsys):
        from repro.runtime import run_chaos

        assert main([*self.ARGS, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        twin = run_chaos(load_problem("micro"), None, seed=0, horizon=120.0)
        assert report["baseline_utility"] == twin.converged_utility()

    def test_zero_baseline_reports_no_retention(self, capsys, monkeypatch):
        import repro.runtime.asynchronous as asynchronous

        monkeypatch.setattr(asynchronous, "retention", lambda faulted, twin: None)
        assert main([*self.ARGS, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["retention"] is None
        assert main(self.ARGS) == 0
        assert "(n/a of fault-free run)" in capsys.readouterr().out

    def test_bad_plan_exits_with_the_message(self):
        with pytest.raises(SystemExit, match="crash_rate must be"):
            main(["chaos", "micro", "--crash-rate", "-1"])

    def test_no_checkpoint_forces_cold_restarts(self, capsys):
        assert main([*self.ARGS, "--no-checkpoint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plan"]["checkpoint_interval"] is None
        assert all(
            record["from_checkpoint"] is False
            for record in payload["recoveries"]
        )


class TestTraceCommand:
    def test_jsonl_stream_is_schema_valid(self, capsys):
        from repro.obs.events import IterationEvent, event_from_dict

        assert main(
            ["trace", "run", "micro", "--iterations", "25", "--events", "iteration"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert all(isinstance(event, IterationEvent) for event in events)
        assert [event.iteration for event in events] == list(range(1, 26))

    def test_snapshots_flag_adds_state_columns(self, capsys):
        assert main(
            ["trace", "run", "micro", "--iterations", "10", "--events", "iteration",
             "--snapshots"]
        ) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert "rates" in first
        assert "gammas" in first
        assert "slack" in first

    def test_csv_format(self, capsys):
        assert main(
            ["trace", "run", "micro", "--iterations", "10", "--events", "iteration",
             "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("type,")
        assert len(lines) == 11

    def test_output_file_reports_count(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "run", "micro", "--iterations", "15", "--events", "iteration",
             "-o", str(path)]
        ) == 0
        assert "15 event(s) written" in capsys.readouterr().out
        assert len(path.read_text().splitlines()) == 15

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(SystemExit, match="unknown event"):
            main(["trace", "run", "micro", "--events", "bogus"])

    def test_async_engine_emits_messages(self, capsys):
        assert main(
            ["trace", "run", "micro", "--iterations", "20", "--engine", "async",
             "--events", "message"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all(json.loads(line)["type"] == "message" for line in lines)

    def test_bare_workload_form_is_a_usage_error(self, capsys):
        # ``trace`` takes a subcommand; a workload in its place is an
        # invalid choice, not an implied ``run``.
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "micro", "--iterations", "5"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'micro'" in capsys.readouterr().err

    def test_v2_messages_carry_causal_spans(self, capsys):
        assert main(
            ["trace", "run", "micro", "--iterations", "5", "--engine", "sync",
             "--events", "message"]
        ) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert records
        assert all(record["trace_id"] == "sync-micro" for record in records)
        assert all(record["span_id"].startswith("s") for record in records)

    def test_gzip_capture_requires_output_file(self):
        with pytest.raises(SystemExit, match="requires -o"):
            main(["trace", "run", "micro", "--gzip"])

    def test_gzip_capture_round_trips(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl.gz"
        assert main(
            ["trace", "run", "micro", "--iterations", "10", "--events", "iteration",
             "--gzip", "-o", str(path)]
        ) == 0
        assert "10 event(s) written" in capsys.readouterr().out
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # actually gzipped
        events = list(read_jsonl(path))
        assert [event.iteration for event in events] == list(range(1, 11))


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    """One shared micro capture for the show/causal/replay commands."""
    path = tmp_path_factory.mktemp("capture") / "trace.jsonl"
    assert main(
        ["trace", "run", "micro", "--iterations", "120", "--engine", "sync",
         "-o", str(path)]
    ) == 0
    return str(path)


class TestTraceShowCommand:
    def test_renders_one_line_per_event(self, capture_path, capsys):
        assert main(["trace", "show", capture_path]) == 0
        out = capsys.readouterr().out
        assert "iteration" in out
        assert "message" in out
        assert "->" in out  # message lines show sender -> recipient

    def test_type_filter(self, capture_path, capsys):
        assert main(["trace", "show", capture_path, "--type", "iteration"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        assert all("iteration" in line for line in lines)

    def test_since_filter_drops_earlier_events(self, capture_path, capsys):
        assert main(
            ["trace", "show", capture_path, "--type", "iteration",
             "--since", "100"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert 0 < len(lines) < 120

    def test_unmatched_filter_reports_empty(self, capture_path, capsys):
        assert main(
            ["trace", "show", capture_path, "--since", "1e9"]
        ) == 0
        assert "(no matching events)" in capsys.readouterr().out

    def test_missing_capture_exits(self):
        with pytest.raises(SystemExit, match="no such capture"):
            main(["trace", "show", "/no/such/file.jsonl"])

    def test_follow_drains_a_finished_capture(self, capture_path, capsys):
        assert main(
            ["trace", "show", capture_path, "--type", "iteration",
             "--follow", "--idle-timeout", "0.2"]
        ) == 0
        assert len(capsys.readouterr().out.splitlines()) == 120

    def test_dashboard_renders_replay_summary(self, capture_path, capsys):
        assert main(
            ["trace", "show", capture_path, "--dashboard",
             "--refresh-every", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace dashboard (final" in out
        assert "utility:" in out


class TestTraceCausalCommand:
    def test_human_report_shows_critical_path(self, capture_path, capsys):
        assert main(["trace", "causal", capture_path]) == 0
        out = capsys.readouterr().out
        assert "causal graph:" in out
        assert "critical path:" in out
        assert "time-to-stability" in out

    def test_json_report_satisfies_acceptance_criterion(
        self, capture_path, capsys
    ):
        assert main(["trace", "causal", capture_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        path = payload["critical_path"]
        assert path is not None
        assert path["hops"]  # non-empty
        assert path["total_latency"] >= path["time_to_stability"] - 1e-9

    def test_missing_capture_exits(self):
        with pytest.raises(SystemExit, match="no such capture"):
            main(["trace", "causal", "/no/such/file.jsonl"])


class TestReplayCommand:
    def test_full_replay_prints_final_state(self, capture_path, capsys):
        assert main(["replay", capture_path]) == 0
        out = capsys.readouterr().out
        assert "replayed:" in out
        assert "utility:" in out

    def test_seek_to_index_json(self, capture_path, capsys):
        assert main(["replay", capture_path, "--at", "50", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"] == 50

    def test_negative_index_counts_from_end(self, capture_path, capsys):
        assert main(["replay", capture_path, "--at", "-1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"] > 0

    def test_out_of_range_index_exits(self, capture_path):
        with pytest.raises(SystemExit, match="out of range"):
            main(["replay", capture_path, "--at", "10000000"])

    def test_missing_capture_exits(self):
        with pytest.raises(SystemExit, match="no such capture"):
            main(["replay", "/no/such/file.jsonl"])


class TestBenchCommands:
    def write_suite(self, directory, name, payload):
        (directory / f"BENCH_{name}.json").write_text(json.dumps(payload))

    def test_snapshot_writes_trajectory(self, tmp_path, capsys):
        self.write_suite(tmp_path, "engines", {"speedup": 3.0})
        out_path = tmp_path / "BENCH_trajectory.json"
        assert main(
            ["bench", "snapshot", "--results-dir", str(tmp_path)]
        ) == 0
        assert "1 metric(s)" in capsys.readouterr().out
        snapshot = json.loads(out_path.read_text())
        assert snapshot["metrics"] == {"engines.speedup": 3.0}

    def test_compare_reports_regressions(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"metrics": {"engines.speedup": 4.0}}))
        new.write_text(json.dumps({"metrics": {"engines.speedup": 2.0}}))
        assert main(["bench", "compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "1 regression(s)" in out
        assert "engines.speedup" in out

    def test_strict_mode_fails_on_regressions(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"metrics": {"engines.speedup": 4.0}}))
        new.write_text(json.dumps({"metrics": {"engines.speedup": 2.0}}))
        assert main(
            ["bench", "compare", str(old), str(new), "--strict"]
        ) == 1
        assert main(
            ["bench", "compare", str(old), str(old), "--strict"]
        ) == 0

    def test_compare_json_output(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"metrics": {"engines.speedup": 4.0}}))
        assert main(
            ["bench", "compare", str(old), str(old), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stable"] == 1
        assert payload["regressions"] == []

    def test_missing_snapshot_exits(self, tmp_path):
        present = tmp_path / "old.json"
        present.write_text("{}")
        with pytest.raises(SystemExit, match="no such snapshot"):
            main(["bench", "compare", str(present), "/no/such.json"])

    def test_missing_results_dir_exits(self):
        with pytest.raises(SystemExit, match="no such results directory"):
            main(["bench", "snapshot", "--results-dir", "/no/such/dir"])


class TestProfileCommand:
    def test_prints_phase_tree(self, capsys):
        assert main(["profile", "micro", "--iterations", "30"]) == 0
        out = capsys.readouterr().out
        assert "engine:     reference" in out
        assert "solve" in out
        assert "  iteration" in out
        assert "argmax" in out and "admission" in out and "price_update" in out
        assert "total " in out

    def test_vectorized_engine(self, capsys):
        assert main(
            ["profile", "base", "--engine", "vectorized", "--iterations", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "engine:     vectorized" in out
        assert "argmax" in out

    def test_runtime_engines_profile_runtime_phases(self, capsys):
        assert main(
            ["profile", "micro", "--engine", "sync", "--iterations", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "runtime" in out
        assert "activation" in out and "delivery" in out
        assert main(
            ["profile", "micro", "--engine", "async", "--iterations", "10"]
        ) == 0
        assert "runtime" in capsys.readouterr().out

    def test_flame_speedscope_and_json_exports(self, tmp_path, capsys):
        flame = tmp_path / "flame.txt"
        speedscope = tmp_path / "profile.speedscope.json"
        report = tmp_path / "profile.json"
        assert main(
            ["profile", "micro", "--iterations", "30",
             "--flame", str(flame), "--speedscope", str(speedscope),
             "--json", str(report)]
        ) == 0
        out = capsys.readouterr().out
        assert "collapsed stacks written" in out
        assert "speedscope profile written" in out
        assert "profile JSON written" in out
        for line in flame.read_text().strip().splitlines():
            stack, _, value = line.rpartition(" ")
            assert stack.split(";")[0] == "solve"
            assert int(value) > 0
        scope = json.loads(speedscope.read_text())
        assert scope["profiles"][0]["unit"] == "nanoseconds"
        payload = json.loads(report.read_text())
        assert payload["version"] == 1
        assert "solve.iteration" in payload["phases"]

    def test_allocations_flag_adds_column(self, capsys):
        assert main(
            ["profile", "micro", "--iterations", "10", "--allocations"]
        ) == 0
        assert "alloc" in capsys.readouterr().out

    def test_records_spans_only(self, monkeypatch):
        import repro.cli
        from repro.obs import NULL_REGISTRY, NULL_SINK

        bundles = []
        original = repro.cli._telemetry_run

        def spy(args, problem, telemetry=None):
            bundles.append(telemetry)
            return original(args, problem, telemetry=telemetry)

        monkeypatch.setattr(repro.cli, "_telemetry_run", spy)
        assert main(["profile", "micro", "--iterations", "10"]) == 0
        (telemetry,) = bundles
        assert telemetry.enabled is False
        assert telemetry.registry is NULL_REGISTRY
        assert telemetry.sink is NULL_SINK
        assert telemetry.profiler.enabled


class TestDashboardBoundedMemory:
    def make_events(self, count):
        from repro.obs import IterationEvent

        return [
            IterationEvent(
                iteration=index + 1, utility=float(index), t_ns=index, at=None
            )
            for index in range(count)
        ]

    def test_aggregator_retains_only_the_rolling_window(self):
        from repro.cli import _DashboardAggregator

        aggregator = _DashboardAggregator(window=100)
        for event in self.make_events(100_000):
            aggregator.add(event)
        assert aggregator.total == 100_000
        assert len(aggregator.recent) == 100
        assert aggregator.kind_counts == {"iteration": 100_000}
        state = aggregator.engine.state()
        assert state.index == 100_000
        assert state.utility == 99_999.0

    def test_streamed_state_matches_full_replay(self):
        from repro.cli import _DashboardAggregator
        from repro.obs import ReplayEngine

        events = self.make_events(500)
        aggregator = _DashboardAggregator(window=10)
        for event in events:
            aggregator.add(event)
        full = ReplayEngine(events).final()
        streamed = aggregator.engine.state()
        assert streamed.utility == full.utility
        assert streamed.index == full.index
        assert streamed.rates == full.rates

    def test_dashboard_frame_reports_kind_counts(self, capsys):
        from repro.cli import _DashboardAggregator, _render_dashboard_frame

        aggregator = _DashboardAggregator(window=10)
        for event in self.make_events(25):
            aggregator.add(event)
        _render_dashboard_frame(aggregator, final=True)
        out = capsys.readouterr().out
        assert "25 event(s)" in out
        assert "iteration=25" in out


class TestFollowRejectsGzip:
    def test_follow_on_gzip_capture_exits_with_clear_error(self, tmp_path):
        path = tmp_path / "capture.jsonl.gz"
        assert main(
            ["trace", "run", "micro", "--iterations", "5", "--gzip", "-o", str(path)]
        ) == 0
        with pytest.raises(SystemExit, match="cannot --follow gzip"):
            main(["trace", "show", str(path), "--follow"])

    def test_show_without_follow_still_reads_gzip(self, tmp_path, capsys):
        path = tmp_path / "capture.jsonl.gz"
        assert main(
            ["trace", "run", "micro", "--iterations", "5", "--gzip", "-o", str(path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "show", str(path)]) == 0
        assert "iteration" in capsys.readouterr().out


class TestBenchCompareBlame:
    def profile_payload(self, admission=None):
        import time

        from repro.core.lrgp import LRGP, LRGPConfig
        from repro.obs import PhaseProfiler, Telemetry

        options = {} if admission is None else {"admission": admission}
        profiler = PhaseProfiler()
        config = LRGPConfig(
            telemetry=Telemetry(profiler=profiler), **options
        )
        LRGP(load_problem("base"), config).run(30)
        report = profiler.report()
        return {
            "workload": "base",
            "wall_time_seconds": report.total_wall_ns / 1e9,
            "phases": {
                stat.dotted: {
                    "calls": stat.calls,
                    "self_seconds": stat.self_wall_ns / 1e9,
                    "total_seconds": stat.wall_ns / 1e9,
                }
                for stat in report.stats
            },
        }

    def test_synthetic_phase_slowdown_is_named_in_blame(
        self, tmp_path, capsys
    ):
        import time

        from repro.core.consumer_allocation import allocate_consumers

        def slow_admission(problem, node_id, rates):
            time.sleep(0.002)
            return allocate_consumers(problem, node_id, rates)

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(self.profile_payload()))
        new.write_text(json.dumps(self.profile_payload(slow_admission)))
        assert main(["bench", "compare", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "regression(s)" in out
        assert "regression blame" in out
        blame_section = out.split("regression blame", 1)[1]
        assert "solve.iteration.admission" in blame_section.splitlines()[1]


class TestWorkloadSpecConvention:
    """The registry's NAME[:k=v,...] spec is the one CLI convention."""

    def test_flag_and_positional_are_equivalent(self, capsys):
        assert main(["optimize", "micro", "--iterations", "30"]) == 0
        positional = capsys.readouterr().out
        assert main(
            ["optimize", "--workload", "micro", "--iterations", "30"]
        ) == 0
        assert capsys.readouterr().out == positional

    def test_conflicting_workloads_exit(self):
        with pytest.raises(SystemExit, match="twice"):
            main(["optimize", "micro", "--workload", "base"])

    def test_missing_workload_exits(self):
        with pytest.raises(SystemExit, match="workload"):
            main(["optimize"])

    def test_parameterized_spec_reaches_factory(self, capsys):
        assert main(["workload", "tree:depth=2,flows=2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == 1

    def test_removed_spelling_is_an_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload 'base-pow50'"):
            main(["optimize", "base-pow50", "--iterations", "30"])

    def test_workload_list_shows_registry_and_aliases(self, capsys):
        assert main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        assert "micro" in out
        assert "flows-x4" in out
        assert "flows:factor=4" in out


class TestSweepCommand:
    GRID = [
        "--workload", "micro",
        "--method", "lrgp", "--method", "annealing",
        "--iterations", "20",
    ]

    def cache_args(self, tmp_path):
        return ["--cache-dir", str(tmp_path / "cache")]

    def test_dry_run_plans_without_executing(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", "--dry-run", *self.GRID,
             *self.cache_args(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 to execute" in out
        assert not (tmp_path / "cache").exists() or not any(
            (tmp_path / "cache").rglob("*.json")
        )

    def test_run_then_rerun_hits_cache(self, tmp_path, capsys):
        args = ["sweep", "run", *self.GRID, *self.cache_args(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 cached, 2 executed" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 executed" in second

    def test_force_re_executes(self, tmp_path, capsys):
        args = ["sweep", "run", *self.GRID, *self.cache_args(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main([*args, "--force"]) == 0
        assert "0 cached, 2 executed" in capsys.readouterr().out

    def test_exports_csv_json_bench(self, tmp_path, capsys):
        import csv

        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        bench_path = tmp_path / "bench.json"
        assert main(
            ["sweep", "run", *self.GRID, *self.cache_args(tmp_path),
             "--csv", str(csv_path), "--json", str(json_path),
             "--bench", str(bench_path)]
        ) == 0
        rows = list(csv.DictReader(csv_path.open()))
        assert len(rows) == 2
        payload = json.loads(json_path.read_text())
        assert payload["cells_total"] == 2
        bench = json.loads(bench_path.read_text())
        assert bench["farm"]["cells_total"] == 2

    def test_spec_file_round_trip(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "workloads": ["micro"],
            "methods": ["lrgp"],
            "iterations": [15],
        }))
        assert main(
            ["sweep", "run", "--spec", str(spec_path),
             *self.cache_args(tmp_path)]
        ) == 0
        assert "micro/lrgp/i15" in capsys.readouterr().out

    def test_spec_file_excludes_axis_flags(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"workloads": ["micro"]}))
        with pytest.raises(SystemExit, match="--spec"):
            main(["sweep", "run", "--spec", str(spec_path),
                  "--workload", "base", *self.cache_args(tmp_path)])

    def test_unknown_workload_in_grid_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", "run", "--workload", "no-such",
                  *self.cache_args(tmp_path)])

    def test_malformed_workload_spec_exits(self, tmp_path):
        # Empty spec parts must abort the sweep, not silently drop.
        with pytest.raises(SystemExit, match="empty parameter"):
            main(["sweep", "run", "--workload", "base:,,flows=4",
                  *self.cache_args(tmp_path)])

    def test_non_finite_workload_param_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="non-finite"):
            main(["sweep", "run", "--workload", "base:link_capacity=inf",
                  *self.cache_args(tmp_path)])

    def test_fault_plan_can_turn_checkpointing_off(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", "--dry-run", "--workload", "micro",
             "--fault-plan", "checkpoint_interval=none,horizon=40",
             *self.cache_args(tmp_path)]
        ) == 0
        assert "1 to execute" in capsys.readouterr().out

    def test_none_for_a_numeric_fault_plan_key_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="'crash_rate' must be a number"):
            main(["sweep", "run", "--workload", "micro",
                  "--fault-plan", "crash_rate=none", *self.cache_args(tmp_path)])

    def test_show_and_clean(self, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "show", *cache]) == 0
        out = capsys.readouterr().out
        assert "micro/lrgp/i20" in out
        assert "2 entr" in out
        assert main(["sweep", "clean", *cache]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert main(["sweep", "show", *cache]) == 0
        assert "0 entries" in capsys.readouterr().out


class TestStatsFromJson:
    def archive(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(
            ["stats", "micro", "--iterations", "20", "--format", "json",
             "-o", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def test_renders_archived_snapshot(self, tmp_path, capsys):
        path = self.archive(tmp_path, capsys)
        assert main(["stats", "--from-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"source:     {path}" in out
        assert "lrgp.iterations: 20" in out

    def test_prometheus_format(self, tmp_path, capsys):
        path = self.archive(tmp_path, capsys)
        assert main(
            ["stats", "--from-json", str(path), "--format", "prometheus"]
        ) == 0
        assert "repro_lrgp_iterations_total 20" in capsys.readouterr().out

    def test_json_format_round_trips(self, tmp_path, capsys):
        path = self.archive(tmp_path, capsys)
        assert main(
            ["stats", "--from-json", str(path), "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["lrgp.iterations"] == 20

    def test_bare_metrics_snapshot_loads_too(self, tmp_path, capsys):
        path = self.archive(tmp_path, capsys)
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(path.read_text())["metrics"]))
        assert main(["stats", "--from-json", str(bare)]) == 0
        assert "lrgp.iterations: 20" in capsys.readouterr().out

    def test_workload_plus_from_json_is_ambiguous(self, tmp_path, capsys):
        path = self.archive(tmp_path, capsys)
        with pytest.raises(SystemExit, match="ambiguous"):
            main(["stats", "micro", "--from-json", str(path)])

    def test_malformed_file_exits(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{\"not\": \"a snapshot\"}")
        with pytest.raises(SystemExit):
            main(["stats", "--from-json", str(path)])


class TestSweepObservability:
    GRID = [
        "--workload", "micro", "--seed", "0", "--seed", "1",
        "--iterations", "15",
    ]

    def cache_args(self, tmp_path):
        return ["--cache-dir", str(tmp_path / "cache")]

    def test_live_progress_goes_to_stderr(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", *self.GRID, *self.cache_args(tmp_path),
             "--live"]
        ) == 0
        captured = capsys.readouterr()
        assert "sweep finished" in captured.err
        assert "[2/2]" in captured.err
        assert "sweep finished" not in captured.out

    def test_events_stream_is_jsonl(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(
            ["sweep", "run", *self.GRID, *self.cache_args(tmp_path),
             "--events", str(events_path)]
        ) == 0
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"
        assert kinds.count("cell_finished") == 2

    def test_capture_ships_telemetry_and_flame_exports(self, tmp_path, capsys):
        flame = tmp_path / "farm.folded"
        speedscope = tmp_path / "farm.speedscope.json"
        assert main(
            ["sweep", "run", *self.GRID, *self.cache_args(tmp_path),
             "--capture", "--flame", str(flame),
             "--speedscope", str(speedscope)]
        ) == 0
        lines = flame.read_text().splitlines()
        assert lines and all(
            line.rsplit(" ", 1)[1].isdigit() for line in lines
        )
        assert any(line.startswith("cell") for line in lines)
        profile = json.loads(speedscope.read_text())
        assert profile["profiles"][0]["name"] == "repro sweep farm"

    def test_flame_without_capture_exits_with_advice(self, tmp_path):
        with pytest.raises(SystemExit, match="--capture"):
            main(
                ["sweep", "run", *self.GRID, *self.cache_args(tmp_path),
                 "--flame", str(tmp_path / "farm.folded")]
            )

    def test_failed_cell_exits_nonzero_but_completes(self, tmp_path, capsys):
        assert main(
            ["sweep", "run", "--workload", "micro",
             "--workload", "base:shape=bogus", "--iterations", "15",
             "--jobs", "2", *self.cache_args(tmp_path)]
        ) == 1
        out = capsys.readouterr().out
        assert "1 cell(s) FAILED" in out
        assert "ValueError" in out
        # The good cell still cached; rerun hits it.
        assert main(
            ["sweep", "run", "--workload", "micro", "--iterations", "15",
             *self.cache_args(tmp_path)]
        ) == 0
        assert "1 cached, 0 executed" in capsys.readouterr().out

    def test_ledger_records_every_invocation(self, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "ledger", *cache]) == 0
        out = capsys.readouterr().out
        assert "ledger.jsonl" in out
        assert "hits=0 executed=2" in out
        assert "hits=2 executed=0" in out

    def test_ledger_json_and_limit(self, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        capsys.readouterr()
        assert main(["sweep", "ledger", *cache, "--json", "--limit", "1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["hits"] == 2

    def test_no_ledger_opts_out(self, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache, "--no-ledger"]) == 0
        capsys.readouterr()
        assert main(["sweep", "ledger", *cache]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_diff_flame_between_cached_cells(self, tmp_path, capsys):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache, "--capture"]) == 0
        capsys.readouterr()
        out_path = tmp_path / "diff.folded"
        assert main(
            ["sweep", "diff-flame", "micro/lrgp/i15", "micro/lrgp/i15/s1",
             *cache, "-o", str(out_path)]
        ) == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, before, after = line.rsplit(" ", 2)
            assert stack
            int(before), int(after)

    def test_diff_flame_unknown_selector_exits(self, tmp_path):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache, "--capture"]) == 0
        with pytest.raises(SystemExit, match="no cached cell"):
            main(["sweep", "diff-flame", "nope", "micro/lrgp/i15", *cache])

    def test_diff_flame_without_telemetry_advises_capture(self, tmp_path):
        cache = self.cache_args(tmp_path)
        assert main(["sweep", "run", *self.GRID, *cache]) == 0
        with pytest.raises(SystemExit, match="--capture"):
            main(
                ["sweep", "diff-flame", "micro/lrgp/i15",
                 "micro/lrgp/i15/s1", *cache]
            )
