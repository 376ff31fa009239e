"""Extension experiments — beyond the paper's evaluation.

* **E1 — link pricing** (paper §4.1 footnote 3 defers this to Low &
  Lapsley): a shared-uplink workload sweeping the bottleneck capacity; the
  gradient-projection price should pin usage to capacity and match the
  analytic equilibrium ``p* = (sum_i N_i) / (c_l + |F|)``.
* **E2 — multirate delivery** (paper §5 future work): per-node flow
  thinning vs the single-rate model, on the base workload and on a
  heterogeneous-capacity variant where thinning should pay clearly.
* **E3 — two-stage path pruning** (paper §2.4, stage 2): on a workload
  with a starved node, pruning the branches nobody was admitted on
  releases the flow-node pressure and stage 2 recovers utility.
* **E4 — why the node constraint exists**: run the queueing simulator at
  controlled utilizations; end-to-end latency explodes as eq. 5's LHS
  approaches the capacity — the failure mode admission control prevents.
* **E8 — recovery under faults** (section 2.1's "responding to changes in
  system capacity", taken to agent granularity): crash a node agent in the
  asynchronous deployment and measure recovery, checkpoint vs cold
  restart, plus retention under randomized fault plans of rising rate.
"""

from __future__ import annotations

from repro.core.lrgp import LRGP, LRGPConfig
from repro.core.multirate import MultirateLRGP
from repro.core.two_stage import two_stage_optimize
from repro.events.simulator import EventInfrastructure
from repro.experiments.reporting import TableResult, format_number
from repro.model.allocation import Allocation, link_usage, node_usage
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload

#: Step size for link prices in the bottleneck regime (see
#: tests/workloads/test_bottleneck.py for the stability analysis).
LINK_GAMMA = 0.5


def extension_link_pricing(
    capacities: tuple[float, ...] = (300.0, 100.0, 30.0),
    iterations: int = 600,
) -> TableResult:
    """E1: sweep the uplink capacity; report rates, usage, measured and
    analytic equilibrium prices."""
    rows = []
    for capacity in capacities:
        problem = link_bottleneck_workload(link_capacity=capacity)
        optimizer = LRGP(problem, LRGPConfig(link_gamma=LINK_GAMMA))
        optimizer.run(iterations)
        allocation = optimizer.allocation()
        usage = link_usage(problem, allocation, "uplink")
        total_weight = sum(
            problem.classes[class_id].max_consumers
            * problem.classes[class_id].utility.scale
            for class_id in problem.classes
        )
        analytic_price = total_weight / (capacity + len(problem.flows))
        rows.append(
            (
                format_number(capacity),
                " / ".join(
                    f"{allocation.rates[f]:.1f}" for f in sorted(allocation.rates)
                ),
                f"{usage:.1f}",
                f"{optimizer.link_prices()['uplink']:.1f}",
                f"{analytic_price:.1f}",
                format_number(optimizer.utilities[-1]),
            )
        )
    return TableResult(
        table_id="Extension E1",
        title="Link pricing on a shared uplink (deferred in the paper to "
        "Low & Lapsley)",
        columns=("uplink cap", "rates f0/f1/f2", "usage", "price",
                 "analytic p*", "utility"),
        rows=tuple(rows),
        notes="log utilities: r_i = N_i/p - 1, so p* = sum(N)/(c + flows)",
    )


def extension_multirate(iterations: int = 250) -> TableResult:
    """E2: single-rate LRGP vs multirate LRGP."""
    rows = []
    scenarios = [
        ("base workload", base_workload()),
        (
            "base, S1 capacity / 10",
            base_workload().with_node_capacity("S1", 9.0e4),
        ),
        (
            "base, S1 cap/10 & S2 cap/3",
            base_workload()
            .with_node_capacity("S1", 9.0e4)
            .with_node_capacity("S2", 3.0e5),
        ),
    ]
    for label, problem in scenarios:
        single = LRGP(problem, LRGPConfig.adaptive())
        single.run(iterations)
        multi = MultirateLRGP(problem)
        multi.run(iterations)
        gain = (multi.utilities[-1] - single.utilities[-1]) / single.utilities[-1]
        rows.append(
            (
                label,
                format_number(single.utilities[-1]),
                format_number(multi.utilities[-1]),
                f"{gain * 100.0:+.2f}%",
            )
        )
    return TableResult(
        table_id="Extension E2",
        title="Multirate delivery (the paper's deferred future work, §5)",
        columns=("workload", "single-rate utility", "multirate utility", "gain"),
        rows=tuple(rows),
        notes="multirate lets capacity-starved nodes thin flows locally "
        "instead of slowing every receiver",
    )


def extension_two_stage(iterations: int = 250) -> TableResult:
    """E3: the two-stage approximation's pruning pass."""
    rows = []
    scenarios = [
        ("base workload", base_workload()),
        ("base, S2 capacity -> 100", base_workload().with_node_capacity("S2", 100.0)),
        ("base, S2 cap 100 & S1 cap/10",
         base_workload()
         .with_node_capacity("S2", 100.0)
         .with_node_capacity("S1", 9.0e4)),
    ]
    for label, problem in scenarios:
        result = two_stage_optimize(problem, iterations=iterations)
        rows.append(
            (
                label,
                format_number(result.stage1_utility),
                format_number(result.stage2_utility),
                str(len(result.prune_set.flow_nodes)),
                f"{result.improvement * 100.0:+.2f}%",
            )
        )
    return TableResult(
        table_id="Extension E3",
        title="Two-stage approximation with path pruning (§2.4)",
        columns=("workload", "stage 1 utility", "stage 2 utility",
                 "(node,flow) pruned", "gain"),
        rows=tuple(rows),
        notes="pruning zeroes F/L coefficients on branches where stage 1 "
        "admitted nobody",
    )


def extension_queueing_latency(
    utilizations: tuple[float, ...] = (0.5, 0.8, 0.95, 1.05, 1.2),
    capacity: float = 2000.0,
    duration: float = 60.0,
    seed: int = 3,
) -> TableResult:
    """E4: mean delivery latency vs node utilization on the queueing
    simulator.

    Uses a single-node instance where the utilization (eq. 5 LHS over
    capacity) can be dialed exactly through one flow's rate: with one
    admitted class of 5 consumers at consumer cost 10 and flow costs 1,
    ``usage = 51 * r_a + 1``.  Poisson arrivals, FIFO service at
    ``capacity`` resource units per second.
    """
    from repro.workloads.micro import micro_workload

    rows = []
    problem = micro_workload(capacity=capacity)
    for utilization in utilizations:
        rate_a = (utilization * capacity - 1.0) / 51.0
        allocation = Allocation(
            rates={"fa": rate_a, "fb": 1.0},
            populations={"ca": 5, "cb": 0, "cc": 0},
        )
        infra = EventInfrastructure(problem, queueing=True, poisson=True, seed=seed)
        infra.enact(allocation)
        infra.run_for(duration)
        rho = node_usage(problem, allocation, "S") / capacity
        rows.append(
            (
                f"{rho:.2f}",
                f"{rate_a:.1f}",
                f"{infra.mean_delivery_latency() * 1000.0:.1f}",
                str(infra.total_deliveries()),
            )
        )
    return TableResult(
        table_id="Extension E4",
        title="Why eq. 5 exists: delivery latency vs node utilization "
        "(queueing simulator)",
        columns=("utilization", "rate f_a", "mean latency (ms)", "deliveries"),
        rows=tuple(rows),
        notes="FIFO node server; latency diverges as utilization crosses 1 "
        "- the overload admission control prevents",
    )


def extension_capacity_churn(total_iterations: int = 300):
    """E5: the autonomic story — LRGP tracking a sequence of system
    changes (capacity loss, flow departure, capacity restoration).

    Returns a :class:`FigureResult` whose single series is the utility
    trajectory, with the scripted events recorded in the notes.
    """
    from repro.experiments.reporting import FigureResult, Series
    from repro.workloads.dynamics import churn_scenario

    run = churn_scenario(total_iterations=total_iterations).run()
    series = Series(
        label="adaptive gamma",
        xs=tuple(float(i) for i in range(1, len(run.utilities) + 1)),
        ys=tuple(run.utilities),
    )
    notes = "; ".join(f"iter {it}: {label}" for it, label in run.events)
    return FigureResult(
        figure_id="Extension E5",
        title="Utility under capacity and membership churn",
        x_label="iteration",
        y_label="total utility",
        series=(series,),
        notes=notes,
    )


def extension_coordinate(iterations: int = 250) -> TableResult:
    """E6: LRGP vs centralized block-coordinate ascent.

    Three comparisons per workload: alternation from a cold start, the
    best of 8 random starts, and alternation *seeded with LRGP's own
    solution* (which certifies LRGP's output as a partial optimum when no
    improvement is found).
    """
    from repro.baselines.coordinate import (
        alternating_optimization,
        multistart_alternating,
    )
    from repro.workloads.bottleneck import link_bottleneck_workload

    rows = []
    scenarios = [
        ("base workload", base_workload(), LRGPConfig.adaptive(), iterations),
        (
            "link bottleneck (cap 100)",
            link_bottleneck_workload(link_capacity=100.0),
            LRGPConfig(link_gamma=0.5),
            600,
        ),
    ]
    for label, problem, config, lrgp_iterations in scenarios:
        optimizer = LRGP(problem, config)
        optimizer.run(lrgp_iterations)
        lrgp_utility = optimizer.utilities[-1]
        cold = alternating_optimization(problem)
        multi = multistart_alternating(problem, starts=8, seed=0)
        seeded = alternating_optimization(problem, initial=optimizer.allocation())
        rows.append(
            (
                label,
                format_number(lrgp_utility),
                format_number(cold.best_utility),
                format_number(multi.best_utility),
                format_number(seeded.best_utility),
            )
        )
    return TableResult(
        table_id="Extension E6",
        title="LRGP vs centralized block-coordinate ascent (the §3.5 "
        "centralization discussion, made concrete)",
        columns=(
            "workload", "LRGP", "coordinate (cold)", "coordinate (8 starts)",
            "coordinate from LRGP",
        ),
        rows=tuple(rows),
        notes="'coordinate from LRGP' == LRGP means LRGP's solution is a "
        "fixpoint of exact alternation (partial-optimality certificate)",
    )


def extension_communication(rounds: int = 30) -> TableResult:
    """E7: protocol message cost of distributed LRGP as the system grows.

    Counts the messages exchanged per synchronous round (rate updates from
    sources + price/population feedback from nodes) across the Table 2
    workloads.  Per round the count is Θ(Σ_i |B_i|): each flow source
    messages every consumer node it reaches, and each node answers every
    flow reaching it — linear in the topology's flow-node incidences, the
    scalability property that makes the distributed deployment viable.
    """
    from repro.core.gamma import AdaptiveGamma
    from repro.runtime.synchronous import SynchronousRuntime
    from repro.workloads.scaling import TABLE2_WORKLOADS

    rows = []
    for label, build in TABLE2_WORKLOADS.items():
        problem = build()
        runtime = SynchronousRuntime(problem, node_gamma=AdaptiveGamma())
        runtime.run(rounds)
        per_round = runtime.messages_sent / rounds
        incidences = sum(
            sum(
                1
                for node_id in problem.route(flow_id).nodes
                if node_id in problem.consumer_nodes()
            )
            for flow_id in problem.flows
        )
        rows.append(
            (
                label,
                str(len(problem.flows)),
                str(len(problem.consumer_nodes())),
                f"{per_round:.0f}",
                f"{per_round / incidences:.2f}",
            )
        )
    return TableResult(
        table_id="Extension E7",
        title="Protocol messages per LRGP iteration (synchronous runtime)",
        columns=("workload", "flows", "c-nodes", "msgs/round",
                 "msgs per flow-node incidence"),
        rows=tuple(rows),
        notes="3 messages per incidence: one RateUpdate down, one "
        "NodePriceUpdate + one PopulationUpdate back",
    )


def samples_to_plateau(
    samples,
    *,
    restart_at: float,
    target: float,
    tolerance: float = 0.01,
    window: int = 5,
) -> int | None:
    """Post-restart samples burned before the utility settles.

    Returns the number of samples at ``t >= restart_at`` that pass before
    ``window`` consecutive samples all sit within ``tolerance`` of
    ``target`` (the pre-fault utility), or ``None`` if the run never
    settles.  0 means the very first post-restart sample already sits on
    the plateau — the checkpoint-restore signature.  A cold restart
    resets the node price to zero, transiently over-admits, and
    oscillates for many samples before settling.
    """
    post = [utility for t, utility in samples if t >= restart_at]
    for start in range(len(post) - window + 1):
        if all(
            abs(utility - target) <= tolerance * target
            for utility in post[start : start + window]
        ):
            return start
    return None


def fault_recovery_detail(
    *,
    cold: bool,
    crash_at: float = 250.0,
    downtime: float = 10.0,
    horizon: float = 500.0,
    seed: int = 29,
) -> dict[str, float | int | None]:
    """One single-crash measurement: crash ``node:S1`` after convergence,
    restart it, and report how the run recovered.

    Both modes checkpoint every 5 time units; ``cold=True`` merely skips
    the restore at restart, isolating the value of the checkpoint itself.
    """
    from repro.runtime.asynchronous import run_chaos
    from repro.runtime.faults import CrashFault, FaultPlan

    problem = base_workload()
    plan = FaultPlan(
        crashes=(
            CrashFault(
                at=crash_at, address="node:S1",
                restart_after=downtime, cold=cold,
            ),
        ),
        checkpoint_interval=5.0,
    )
    runtime = run_chaos(problem, plan, seed=seed, horizon=horizon)
    # The sample *at* the crash instant already reflects the crash (fault
    # events scheduled earlier sort first at equal timestamps), so the
    # pre-fault utility is the last sample strictly before it.
    pre_utility = [u for t, u in runtime.samples if t < crash_at][-1]
    (record,) = runtime.recoveries
    plateau = samples_to_plateau(
        runtime.samples,
        restart_at=crash_at + downtime,
        target=pre_utility,
    )
    return {
        "mode": "cold" if cold else "checkpoint",
        "pre_utility": pre_utility,
        "final_utility": runtime.converged_utility(),
        "retention": runtime.converged_utility() / pre_utility,
        "recovery_time": record.recovery_time,
        "samples_to_plateau": plateau,
    }


def extension_fault_recovery(
    fault_rates: tuple[float, ...] = (0.005, 0.02, 0.05),
    horizon: float = 500.0,
    seed: int = 29,
) -> TableResult:
    """E8: fault tolerance of the asynchronous deployment.

    Two single-crash rows contrast checkpoint restore with a cold restart
    of the same node agent; the sweep rows drive randomized
    :class:`~repro.runtime.faults.FaultPlan`\\ s of rising crash rate and
    report utility retention against the fault-free run.
    """
    from repro.runtime.asynchronous import retention, run_chaos
    from repro.runtime.faults import FaultPlan

    rows = []
    for cold in (False, True):
        detail = fault_recovery_detail(cold=cold, horizon=horizon, seed=seed)
        plateau = detail["samples_to_plateau"]
        rows.append(
            (
                f"1 crash, {detail['mode']} restart",
                "1",
                f"{detail['recovery_time']:.1f}",
                "never" if plateau is None else str(plateau),
                f"{100.0 * detail['retention']:.2f}%",
            )
        )
    problem = base_workload()
    baseline = run_chaos(problem, None, seed=seed, horizon=horizon)
    for rate in fault_rates:
        plan = FaultPlan.random(
            problem,
            seed=seed,
            horizon=horizon,
            crash_rate=rate,
            mean_downtime=5.0,
            warmup=150.0,
        )
        runtime = run_chaos(problem, plan, seed=seed, horizon=horizon)
        ratio = retention(runtime, baseline)
        recoveries = runtime.recoveries
        mean_recovery = (
            sum(r.recovery_time for r in recoveries) / len(recoveries)
            if recoveries
            else 0.0
        )
        rows.append(
            (
                f"random plan, rate {rate:g}",
                str(len(plan.crashes)),
                f"{mean_recovery:.1f}",
                "-",
                "-" if ratio is None else f"{100.0 * ratio:.2f}%",
            )
        )
    return TableResult(
        table_id="Extension E8",
        title="Recovery under agent crashes (asynchronous runtime, "
        "checkpoint interval 5)",
        columns=(
            "scenario", "crashes", "mean recovery time",
            "samples to plateau", "utility retention",
        ),
        rows=tuple(rows),
        notes="plateau = post-restart samples before 5 consecutive samples "
        "sit within 1% of the pre-fault utility; retention vs the "
        "same-seed fault-free run",
    )
