"""Integration: both deployments emit equivalent telemetry on one workload.

The tentpole claim for the observability layer is that the *same* seeded
micro workload, executed by the reference driver, the synchronous runtime,
and the asynchronous runtime, produces iteration-event streams that agree:

* every engine emits one ``iteration`` event per optimization step, in
  order, with the same flattened schema;
* the synchronous runtime's event utilities equal the reference driver's
  bit-for-bit (it *is* the same algorithm, message-passing or not);
* the asynchronous runtime's final sampled utility lands within the same
  tolerance the runtime suite already holds it to (rel=0.02);
* attaching telemetry never perturbs the numerics.
"""

import pytest

from repro.core.lrgp import LRGP, LRGPConfig
from repro.obs import MemorySink, PhaseProfiler, Telemetry
from repro.runtime.asynchronous import AsyncConfig, AsynchronousRuntime
from repro.runtime.synchronous import SynchronousRuntime

ITERATIONS = 120
HORIZON = 120.0
SEED = 11


def run_reference(problem, telemetry):
    optimizer = LRGP(problem, LRGPConfig.adaptive(telemetry=telemetry))
    optimizer.run(ITERATIONS)
    return optimizer


def iteration_events(sink):
    return sink.of_kind("iteration")


class TestIterationEventEquivalence:
    def test_sync_matches_reference_event_for_event(self, tiny_problem):
        reference_sink = MemorySink()
        reference = run_reference(tiny_problem, Telemetry(sink=reference_sink))

        sync_sink = MemorySink()
        runtime = SynchronousRuntime(
            tiny_problem, telemetry=Telemetry(sink=sync_sink)
        )
        runtime.run(ITERATIONS)

        reference_iterations = iteration_events(reference_sink)
        sync_iterations = iteration_events(sync_sink)
        assert len(reference_iterations) == ITERATIONS
        assert len(sync_iterations) == ITERATIONS
        for ref_event, sync_event in zip(reference_iterations, sync_iterations):
            assert sync_event.iteration == ref_event.iteration
            assert sync_event.utility == ref_event.utility  # bit-identical
        assert runtime.utilities == reference.utilities

    def test_async_schema_matches_and_utility_converges(self, tiny_problem):
        reference = run_reference(tiny_problem, Telemetry(sink=MemorySink()))

        async_sink = MemorySink()
        runtime = AsynchronousRuntime(
            tiny_problem,
            AsyncConfig(seed=SEED),
            telemetry=Telemetry(sink=async_sink),
        )
        runtime.run_until(HORIZON)

        events = iteration_events(async_sink)
        assert len(events) == len(runtime.samples)
        for index, event in enumerate(events, start=1):
            assert event.iteration == index
            # Async samples are the light form: same envelope schema as the
            # synchronous runtime's round events (plus the v2 simulated-time
            # stamp both runtimes now attach).
            assert set(event.flatten()) == {
                "type", "iteration", "utility", "t_ns", "at",
            }
        assert events[-1].utility == runtime.samples[-1][1]
        assert runtime.converged_utility() == pytest.approx(
            reference.utilities[-1], rel=0.02
        )

    def test_sync_and_async_emit_identical_schemas(self, tiny_problem):
        sync_sink = MemorySink()
        SynchronousRuntime(
            tiny_problem, telemetry=Telemetry(sink=sync_sink)
        ).run(20)
        async_sink = MemorySink()
        AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=SEED), telemetry=Telemetry(sink=async_sink)
        ).run_until(20.0)

        sync_schemas = {frozenset(e.flatten()) for e in iteration_events(sync_sink)}
        async_schemas = {frozenset(e.flatten()) for e in iteration_events(async_sink)}
        assert sync_schemas == async_schemas
        # Both deployments also exercise the message/agent instrumentation.
        assert {e.kind for e in sync_sink.events} >= {
            "iteration",
            "message",
            "agent_exchange",
            "price_update",
        }
        assert {e.kind for e in async_sink.events} >= {
            "iteration",
            "message",
            "agent_exchange",
            "price_update",
        }


class TestTelemetryIsInert:
    def test_reference_trajectory_unchanged_by_telemetry(self, tiny_problem):
        bare = LRGP(tiny_problem, LRGPConfig.adaptive())
        bare.run(ITERATIONS)
        instrumented = run_reference(tiny_problem, Telemetry(sink=MemorySink()))
        assert instrumented.utilities == bare.utilities

    def test_async_trajectory_unchanged_by_telemetry(self, tiny_problem):
        bare = AsynchronousRuntime(tiny_problem, AsyncConfig(seed=SEED))
        bare.run_until(HORIZON)
        instrumented = AsynchronousRuntime(
            tiny_problem, AsyncConfig(seed=SEED), telemetry=Telemetry(sink=MemorySink())
        )
        instrumented.run_until(HORIZON)
        assert instrumented.samples == bare.samples

    def test_metrics_account_for_every_round(self, tiny_problem):
        profiler = PhaseProfiler()
        telemetry = Telemetry(profiler=profiler)
        runtime = SynchronousRuntime(tiny_problem, telemetry=telemetry)
        runtime.run(25)
        snapshot = telemetry.registry.snapshot()
        assert snapshot.counters["runtime.sync.rounds"] == 25
        assert snapshot.counters["runtime.sync.messages"] == runtime.messages_sent
        assert snapshot.gauges["runtime.sync.utility"] == runtime.utilities[-1]
        assert profiler.report().find("runtime").calls == 25
