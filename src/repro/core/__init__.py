"""LRGP core: the paper's primary contribution (section 3).

* :class:`LRGP`, :class:`LRGPConfig` — the synchronous optimizer.
* :mod:`repro.core.rate_allocation` — Algorithm 1 (Lagrangian rates).
* :mod:`repro.core.consumer_allocation` — greedy populations (Algorithm 2).
* :mod:`repro.core.prices` — node (eq. 12) and link (eq. 13) price updates.
* :mod:`repro.core.gamma` — fixed and adaptive step-size schedules.
* :mod:`repro.core.convergence` — the 0.1%-amplitude stability criterion.
* :mod:`repro.core.engines` — the reference engine and the engine choice.
* :mod:`repro.core.compiled` — problem lowering + the numpy fast path.
"""

from repro.core.consumer_allocation import (
    NodeAllocation,
    allocate_all_consumers,
    allocate_consumers,
    benefit_cost_ratio,
)
from repro.core.convergence import (
    ConvergenceCriterion,
    iterations_until_convergence,
    oscillation_amplitude,
)
from repro.core.enactment import (
    Enactor,
    EnactmentPolicy,
    PeriodicEnactment,
    ThresholdEnactment,
    consumer_churn,
)
from repro.core.engines import (
    DEFAULT_ENGINE,
    LRGPEngine,
    ReferenceEngine,
    StepOutcome,
    available_engines,
    create_engine,
)
from repro.core.gamma import AdaptiveGamma, FixedGamma, GammaSchedule
from repro.core.lrgp import LRGP, AdmissionStrategy, IterationRecord, LRGPConfig
from repro.core.multirate import (
    MultirateAllocation,
    MultirateConfig,
    MultirateLRGP,
    multirate_node_usage,
    multirate_total_utility,
)
from repro.core.two_stage import (
    PruneSet,
    TwoStageResult,
    compute_prune_set,
    two_stage_optimize,
)
from repro.core.prices import LinkPriceController, NodePriceController
from repro.core.rate_allocation import (
    aggregate_flow_price,
    allocate_all_rates,
    allocate_rate,
    link_path_price,
    node_path_price,
)

__all__ = [
    "DEFAULT_ENGINE",
    "LRGP",
    "LRGPEngine",
    "ReferenceEngine",
    "StepOutcome",
    "available_engines",
    "create_engine",
    "AdaptiveGamma",
    "AdmissionStrategy",
    "Enactor",
    "EnactmentPolicy",
    "MultirateAllocation",
    "MultirateConfig",
    "MultirateLRGP",
    "PeriodicEnactment",
    "PruneSet",
    "ThresholdEnactment",
    "TwoStageResult",
    "compute_prune_set",
    "consumer_churn",
    "multirate_node_usage",
    "multirate_total_utility",
    "two_stage_optimize",
    "ConvergenceCriterion",
    "FixedGamma",
    "GammaSchedule",
    "IterationRecord",
    "LRGPConfig",
    "LinkPriceController",
    "NodeAllocation",
    "NodePriceController",
    "aggregate_flow_price",
    "allocate_all_consumers",
    "allocate_all_rates",
    "allocate_consumers",
    "allocate_rate",
    "benefit_cost_ratio",
    "iterations_until_convergence",
    "link_path_price",
    "node_path_price",
    "oscillation_amplitude",
]
