"""``repro.sweep`` — the parallel experiment farm with result caching.

ROADMAP item 2: every scaling claim needs hundreds of configuration
runs, so experiments are declared as a *grid* (:class:`SweepSpec`:
workload x method x engine x gamma-policy x fault-plan x iterations x
seed), expanded to a deterministic list of :class:`RunConfig` cells,
fanned out over a process pool (:func:`run_sweep`) and cached by content
hash (:class:`ResultCache`) so re-runs are incremental: unchanged cells
are cache hits, only new or changed cells execute.

>>> from repro.sweep import SweepSpec, run_sweep
>>> spec = SweepSpec(workloads=("micro", "base"), engines=(None, "vectorized"))
>>> result = run_sweep(spec, jobs=4)
>>> result.executed, result.hits
(4, 0)
>>> run_sweep(spec, jobs=4).hits        # immediate re-run: all cached
4

The CLI face is ``repro sweep run|show|clean`` (docs/sweep.md); results
aggregate into a :class:`SweepResult` table that renders as a report,
CSV/JSON, and a ``BENCH_sweep.json`` payload feeding
``repro bench snapshot|compare``.
"""

from repro.sweep.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cache_salt,
    default_cache_dir,
)
from repro.sweep.farm import SweepCell, SweepResult, execute_run, plan_sweep, run_sweep
from repro.sweep.ledger import (
    LEDGER_FILENAME,
    LEDGER_VERSION,
    RunLedger,
    ledger_record,
    render_ledger,
)
from repro.sweep.live import (
    STRAGGLER_MIN_SAMPLES,
    JsonlEventWriter,
    SweepProgress,
    render_live_event,
)
from repro.sweep.report import (
    bench_payload,
    render_sweep_plan,
    render_sweep_report,
    sweep_to_csv,
    sweep_to_json,
)
from repro.sweep.spec import RunConfig, SweepSpec, load_spec
from repro.sweep.telemetry import (
    TELEMETRY_VERSION,
    FarmTelemetry,
    aggregate_sweep_telemetry,
    capture_bundle,
    cell_phase_report,
    telemetry_payload,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "LEDGER_FILENAME",
    "LEDGER_VERSION",
    "STRAGGLER_MIN_SAMPLES",
    "TELEMETRY_VERSION",
    "FarmTelemetry",
    "JsonlEventWriter",
    "ResultCache",
    "RunConfig",
    "RunLedger",
    "SweepCell",
    "SweepProgress",
    "SweepResult",
    "SweepSpec",
    "aggregate_sweep_telemetry",
    "bench_payload",
    "cache_salt",
    "capture_bundle",
    "cell_phase_report",
    "default_cache_dir",
    "execute_run",
    "ledger_record",
    "load_spec",
    "plan_sweep",
    "render_ledger",
    "render_live_event",
    "render_sweep_plan",
    "render_sweep_report",
    "run_sweep",
    "sweep_to_csv",
    "sweep_to_json",
    "telemetry_payload",
]
