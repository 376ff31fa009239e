"""Tests for failure injection, checkpoint/recovery and protocol hardening.

Covers the fault plan (validation + seeded determinism), the runtime's
execution of crashes/partitions/storms, checkpoint-vs-cold restart
semantics, recovery-time bookkeeping, and the hardened message layer
(sequence numbers, stale rejection, bounded retry).
"""

import math

import pytest

from repro.events.reliability import RetryPolicy
from repro.obs import MemorySink, Telemetry
from repro.runtime.asynchronous import (
    AsyncConfig,
    AsynchronousRuntime,
    retention,
    run_chaos,
)
from repro.runtime.faults import (
    CrashFault,
    DelayStorm,
    FaultPlan,
    PartitionFault,
    RecoveryRecord,
    agent_addresses,
)


class TestFaultPlanValidation:
    def test_crash_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CrashFault(at=-1.0, address="node:S")
        with pytest.raises(ValueError):
            CrashFault(at=1.0, address="node:S", restart_after=0.0)

    def test_partition_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PartitionFault(at=-1.0, duration=1.0, isolated=frozenset({"node:S"}))
        with pytest.raises(ValueError):
            PartitionFault(at=1.0, duration=0.0, isolated=frozenset({"node:S"}))
        with pytest.raises(ValueError):
            PartitionFault(at=1.0, duration=1.0, isolated=frozenset())

    def test_storm_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DelayStorm(at=-1.0, duration=1.0)
        with pytest.raises(ValueError):
            DelayStorm(at=1.0, duration=0.0)
        with pytest.raises(ValueError):
            DelayStorm(at=1.0, duration=1.0, factor=0.5)

    def test_plan_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FaultPlan(checkpoint_interval=0.0)
        with pytest.raises(ValueError):
            FaultPlan(recovery_threshold=0.0)
        with pytest.raises(ValueError):
            FaultPlan(recovery_threshold=1.5)

    def test_fault_records_reject_nan(self):
        with pytest.raises(ValueError):
            CrashFault(at=1.0, address="node:S", restart_after=math.nan)
        with pytest.raises(ValueError):
            PartitionFault(at=math.nan, duration=1.0, isolated=frozenset({"node:S"}))
        with pytest.raises(ValueError):
            DelayStorm(at=1.0, duration=1.0, factor=math.nan)
        with pytest.raises(ValueError):
            FaultPlan(checkpoint_interval=math.nan)

    def test_plan_bool_and_count(self):
        assert not FaultPlan()
        plan = FaultPlan(
            crashes=(CrashFault(at=1.0, address="node:S"),),
            storms=(DelayStorm(at=2.0, duration=1.0),),
        )
        assert plan
        assert plan.fault_count == 2

    def test_addresses_collects_all_named_agents(self):
        plan = FaultPlan(
            crashes=(CrashFault(at=1.0, address="src:fa"),),
            partitions=(
                PartitionFault(
                    at=2.0, duration=1.0, isolated=frozenset({"node:S", "src:fb"})
                ),
            ),
        )
        assert plan.addresses() == frozenset({"src:fa", "node:S", "src:fb"})


class TestFaultPlanGeneration:
    def test_same_seed_same_plan(self, tiny_problem):
        kwargs = dict(
            horizon=200.0, crash_rate=0.05, partition_rate=0.02, storm_rate=0.02
        )
        a = FaultPlan.random(tiny_problem, seed=5, **kwargs)
        b = FaultPlan.random(tiny_problem, seed=5, **kwargs)
        assert a == b
        assert a.fault_count > 0

    def test_different_seed_different_plan(self, tiny_problem):
        a = FaultPlan.random(tiny_problem, seed=5, horizon=200.0, crash_rate=0.05)
        b = FaultPlan.random(tiny_problem, seed=6, horizon=200.0, crash_rate=0.05)
        assert a != b

    def test_faults_respect_warmup_and_horizon(self, tiny_problem):
        plan = FaultPlan.random(
            tiny_problem, seed=1, horizon=100.0, crash_rate=0.2, warmup=30.0
        )
        assert plan.crashes
        assert all(30.0 < crash.at < 100.0 for crash in plan.crashes)

    def test_targets_come_from_the_problem_fleet(self, tiny_problem):
        plan = FaultPlan.random(tiny_problem, seed=2, horizon=300.0, crash_rate=0.1)
        fleet = set(agent_addresses(tiny_problem))
        assert plan.addresses() <= fleet

    def test_generation_validates_inputs(self, tiny_problem):
        with pytest.raises(ValueError):
            FaultPlan.random(tiny_problem, seed=0, horizon=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            FaultPlan.random(tiny_problem, seed=0, horizon=10.0, crash_rate=-1.0)
        with pytest.raises(ValueError):
            FaultPlan.random(
                tiny_problem, seed=0, horizon=10.0, cold_probability=2.0
            )

    @pytest.mark.parametrize("knob", ["crash_rate", "mean_downtime"])
    def test_generation_rejects_nan(self, tiny_problem, knob):
        # Only generation is exercised: a NaN horizon must never reach
        # the arrival loop, which would not terminate.
        with pytest.raises(ValueError, match=knob):
            FaultPlan.random(tiny_problem, seed=0, horizon=100.0, **{knob: math.nan})


class TestChaosRun:
    def test_fault_free_twin_is_the_same_deployment_with_retries(self, tiny_problem):
        twin = run_chaos(tiny_problem, None, seed=3, horizon=60.0)
        manual = AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=3), retry=RetryPolicy()
        )
        manual.run_until(60.0)
        assert twin.samples == manual.samples
        assert twin.message_counters() == {
            "messages_sent": manual.messages_sent,
            "messages_lost": manual.messages_lost,
            "messages_stale": manual.messages_stale,
            "messages_to_down": manual.messages_to_down,
            "messages_partitioned": manual.messages_partitioned,
            "retransmissions": manual.retransmissions,
            "retries_abandoned": manual.retries_abandoned,
        }

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0])
    def test_rejects_a_horizon_the_run_cannot_reach(self, tiny_problem, horizon):
        with pytest.raises(ValueError, match="horizon"):
            run_chaos(tiny_problem, None, seed=0, horizon=horizon)

    def test_retention_is_none_against_a_zero_baseline(self):
        class Converged:
            def __init__(self, utility):
                self.utility = utility

            def converged_utility(self):
                return self.utility

        assert retention(Converged(3.0), Converged(2.0)) == 1.5
        assert retention(Converged(3.0), Converged(0.0)) is None


def crash_plan(address, at=40.0, restart_after=5.0, cold=False, **kwargs):
    return FaultPlan(
        crashes=(
            CrashFault(at=at, address=address, restart_after=restart_after, cold=cold),
        ),
        **kwargs,
    )


class TestCrashAndRestart:
    def test_unknown_address_rejected_at_construction(self, tiny_problem):
        with pytest.raises(ValueError, match="unknown agents"):
            AsynchronousRuntime(
                tiny_problem, fault_plan=crash_plan("node:nope")
            )

    def test_node_down_zeroes_populations(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S", restart_after=None),
        )
        runtime.run_until(39.0)
        assert sum(runtime.allocation().populations.values()) > 0
        assert runtime.down_agents == frozenset()
        runtime.run_until(45.0)
        assert runtime.down_agents == frozenset({"node:S"})
        populations = runtime.allocation().populations
        assert set(populations) == set(tiny_problem.classes)
        assert all(value == 0 for value in populations.values())

    def test_crashed_source_keeps_last_deployed_rate(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("src:fa", restart_after=None),
        )
        runtime.run_until(39.0)
        before = runtime.allocation().rates["fa"]
        runtime.run_until(60.0)
        assert runtime.allocation().rates["fa"] == before

    def test_messages_to_down_agent_are_dropped(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S", restart_after=None),
        )
        runtime.run_until(60.0)
        assert runtime.messages_to_down > 0

    def test_checkpoint_restart_recovers_utility(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S"),
        )
        runtime.run_until(39.0)
        pre_fault = runtime.utility()
        runtime.run_until(120.0)
        assert runtime.down_agents == frozenset()
        assert len(runtime.recoveries) == 1
        record = runtime.recoveries[0]
        assert isinstance(record, RecoveryRecord)
        assert record.address == "node:S"
        assert record.from_checkpoint
        assert record.downtime == pytest.approx(5.0)
        assert record.recovery_time >= 0.0
        assert runtime.utility() >= 0.99 * pre_fault

    def test_cold_restart_recorded_as_cold(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S", cold=True),
        )
        runtime.run_until(200.0)
        assert len(runtime.recoveries) == 1
        assert not runtime.recoveries[0].from_checkpoint

    def test_no_checkpointing_means_cold_restart(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S", checkpoint_interval=None),
        )
        runtime.run_until(200.0)
        assert len(runtime.recoveries) == 1
        assert not runtime.recoveries[0].from_checkpoint

    def test_faulty_run_is_deterministic(self, tiny_problem):
        plan = FaultPlan.random(
            tiny_problem, seed=9, horizon=150.0, crash_rate=0.03, warmup=20.0
        )
        runs = []
        for _ in range(2):
            runtime = AsynchronousRuntime(
                tiny_problem, AsyncConfig(seed=9), fault_plan=plan
            )
            runtime.run_until(150.0)
            runs.append(
                (runtime.samples, runtime.recoveries, runtime.messages_sent)
            )
        assert runs[0] == runs[1]


class TestPartitionsAndStorms:
    def test_partition_drops_crossing_messages_then_heals(self, tiny_problem):
        plan = FaultPlan(
            partitions=(
                PartitionFault(
                    at=20.0, duration=10.0, isolated=frozenset({"src:fa"})
                ),
            )
        )
        runtime = AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=3), fault_plan=plan
        )
        runtime.run_until(20.0)
        assert runtime.messages_partitioned == 0
        runtime.run_until(30.0)
        dropped_during = runtime.messages_partitioned
        assert dropped_during > 0
        runtime.run_until(60.0)
        # Healed: only deliveries already in flight at heal time can still
        # be counted, so the counter stops growing shortly after.
        assert runtime.messages_partitioned <= dropped_during + 5

    def test_partition_does_not_drop_internal_traffic(self, tiny_problem):
        # Isolating everything partitions nothing: no message crosses a cut.
        fleet = frozenset(agent_addresses(tiny_problem))
        plan = FaultPlan(
            partitions=(PartitionFault(at=5.0, duration=20.0, isolated=fleet),)
        )
        runtime = AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=3), fault_plan=plan
        )
        runtime.run_until(40.0)
        assert runtime.messages_partitioned == 0

    def test_storm_multiplies_latency(self, tiny_problem):
        plan = FaultPlan(
            storms=(DelayStorm(at=10.0, duration=20.0, factor=40.0),)
        )
        sink = MemorySink()
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=plan,
            telemetry=Telemetry(sink=sink),
        )
        runtime.run_until(60.0)
        latencies = [event.latency for event in sink.of_kind("message")]
        baseline = max(
            latency for latency in latencies if latency < 1.0
        )
        stormy = max(latencies)
        assert stormy > 5.0 * baseline

    def test_fault_events_emitted(self, tiny_problem):
        plan = FaultPlan(
            crashes=(CrashFault(at=10.0, address="node:S", restart_after=5.0),),
            partitions=(
                PartitionFault(at=12.0, duration=4.0, isolated=frozenset({"src:fa"})),
            ),
            storms=(DelayStorm(at=14.0, duration=4.0, factor=5.0),),
        )
        sink = MemorySink()
        telemetry = Telemetry(sink=sink)
        runtime = AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=3), fault_plan=plan, telemetry=telemetry
        )
        runtime.run_until(60.0)
        kinds = [event.fault for event in sink.of_kind("fault_injected")]
        assert kinds == [
            "crash",
            "partition",
            "delay_storm",
            "partition_heal",
            "delay_storm_end",
        ]
        restarts = sink.of_kind("agent_restarted")
        assert len(restarts) == 1
        assert restarts[0].agent == "node:S"
        assert restarts[0].downtime == pytest.approx(5.0)
        assert telemetry.registry.counter("runtime.async.faults").value == 5
        histogram = telemetry.registry.histogram("runtime.async.recovery_time")
        assert histogram.count == len(runtime.recoveries) == 1


class TestProtocolHardening:
    def test_messages_carry_monotone_sequences(self, tiny_problem):
        # Latency spread wider than the activation period guarantees
        # same-channel overtaking; the overtaken updates must be rejected.
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3, latency_mean=0.9, latency_jitter=1.0),
        )
        runtime.run_until(30.0)
        assert runtime.messages_stale > 0

    def test_stale_rejection_is_per_channel(self, tiny_problem):
        runtime = AsynchronousRuntime(tiny_problem, AsyncConfig(seed=3))
        runtime.run_until(50.0)
        seen = runtime._last_seen
        assert seen
        assert all(seq >= 0 for seq in seen.values())

    def test_retry_retransmits_under_loss(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3, loss_probability=0.3),
            retry=RetryPolicy(timeout=1.5, max_retries=3),
        )
        runtime.run_until(80.0)
        assert runtime.messages_lost > 0
        assert runtime.retransmissions > 0

    def test_retry_abandons_when_recipient_stays_down(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3),
            fault_plan=crash_plan("node:S", at=20.0, restart_after=None),
            retry=RetryPolicy(timeout=1.0, max_retries=2),
        )
        runtime.run_until(80.0)
        assert runtime.retries_abandoned > 0

    def test_retry_does_not_break_convergence(self, tiny_problem):
        plain = AsynchronousRuntime(tiny_problem, AsyncConfig(seed=3))
        plain.run_until(150.0)
        retried = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3, loss_probability=0.2),
            retry=RetryPolicy(timeout=1.5, max_retries=3),
        )
        retried.run_until(150.0)
        assert retried.converged_utility() == pytest.approx(
            plain.converged_utility(), rel=0.02
        )

    def test_retransmission_reuses_sequence_number(self, tiny_problem):
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=3, loss_probability=0.4),
            retry=RetryPolicy(timeout=1.0, max_retries=3),
        )
        runtime.run_until(40.0)
        # Duplicates from retransmit-racing-the-ack are suppressed as stale,
        # never double-applied; the counters prove both paths ran.
        assert runtime.retransmissions > 0
        assert runtime.messages_stale > 0


@pytest.mark.chaos
class TestChaosConvergence:
    """Longer randomized-fault runs; kept behind the ``chaos`` marker."""

    def test_survives_random_fault_storm(self, base_problem):
        plan = FaultPlan.random(
            base_problem,
            seed=17,
            horizon=250.0,
            crash_rate=0.02,
            mean_downtime=5.0,
            partition_rate=0.005,
            mean_partition=8.0,
            storm_rate=0.005,
            mean_storm=8.0,
            storm_factor=5.0,
            warmup=40.0,
        )
        assert plan.fault_count > 0
        runtime = AsynchronousRuntime(
            base_problem,
            AsyncConfig(seed=17),
            fault_plan=plan,
            retry=RetryPolicy(timeout=2.0, max_retries=3),
        )
        runtime.run_until(400.0)
        baseline = AsynchronousRuntime(base_problem, AsyncConfig(seed=17))
        baseline.run_until(400.0)
        assert runtime.converged_utility() == pytest.approx(
            baseline.converged_utility(), rel=0.05
        )
