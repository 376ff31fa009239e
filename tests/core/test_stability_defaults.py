"""Regression tests: the convergence criterion has exactly one definition.

The paper's 0.1%-amplitude window rule is applied by the optimizer-side
detector (:mod:`repro.core.convergence`) and by the event-stream
diagnostics (:mod:`repro.obs.diagnostics`).  Both take its parameters
and its window test from :mod:`repro.utility.stability`, and the driver
and the offline detectors must agree on the resulting iteration counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.convergence import iterations_until_convergence
from repro.core.lrgp import LRGP, LRGPConfig
from repro.obs import ConvergenceDiagnostics, MemorySink, Telemetry
from repro.obs.events import IterationEvent
from repro.utility.stability import (
    CONVERGENCE_REL_AMPLITUDE,
    CONVERGENCE_WINDOW,
)
from repro.workloads.micro import micro_workload


def test_core_and_obs_share_the_stability_constants():
    from repro.core import convergence
    from repro.obs import diagnostics

    assert convergence.DEFAULT_WINDOW == CONVERGENCE_WINDOW
    assert convergence.DEFAULT_REL_AMPLITUDE == CONVERGENCE_REL_AMPLITUDE
    assert diagnostics.DEFAULT_WINDOW == CONVERGENCE_WINDOW
    assert diagnostics.DEFAULT_REL_AMPLITUDE == CONVERGENCE_REL_AMPLITUDE


def test_driver_and_offline_detector_agree():
    """run_until_converged == iterations_until_convergence on one run."""
    live = LRGP(micro_workload())
    stopped_at = live.run_until_converged(max_iterations=300)
    assert stopped_at is not None

    replay = LRGP(micro_workload())
    replay.run(300)
    assert iterations_until_convergence(replay.utilities) == stopped_at


def test_diagnostics_agree_with_optimizer_detector():
    """The event-stream analyzer reports the same stability iteration."""
    telemetry = Telemetry()
    optimizer = LRGP(micro_workload(), LRGPConfig(telemetry=telemetry))
    optimizer.run(150)

    sink = telemetry.sink
    assert isinstance(sink, MemorySink)
    report = ConvergenceDiagnostics().analyze(sink.events)
    assert report.iterations_to_tolerance == iterations_until_convergence(
        optimizer.utilities
    )
    assert report.iterations_to_tolerance == optimizer.convergence_iteration()


#: Small symmetric values make zero-mean windows common.
_TRAJECTORY_VALUES = st.one_of(
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    utilities=st.lists(_TRAJECTORY_VALUES, max_size=40),
    window=st.integers(min_value=2, max_value=6),
    rel_amplitude=st.sampled_from([CONVERGENCE_REL_AMPLITUDE, 0.05]),
)
def test_diagnostics_agree_with_optimizer_detector_on_any_trajectory(
    utilities, window, rel_amplitude
):
    events = [
        IterationEvent(iteration=i, utility=u, t_ns=i)
        for i, u in enumerate(utilities)
    ]
    report = ConvergenceDiagnostics(window, rel_amplitude).analyze(events)
    assert report.iterations_to_tolerance == iterations_until_convergence(
        utilities, window, rel_amplitude
    )
