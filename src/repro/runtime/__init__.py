"""Distributed runtime: LRGP as message-passing agents.

The reference driver in :mod:`repro.core` composes the per-agent algorithms
centrally; this package deploys the same algorithms as communicating agents:

* :class:`SynchronousRuntime` — barrier rounds, bit-identical to the
  reference driver;
* :class:`AsynchronousRuntime` — discrete-event execution with jittered
  clocks, message latency/loss and price averaging (section 3.5), plus
  sequence-numbered exchanges, acknowledged rate announcements and
  checkpoint/restart fault tolerance; :func:`run_chaos` is its one chaos
  run and :func:`retention` compares it with its fault-free twin;
* :mod:`repro.runtime.faults` — deterministic failure injection
  (:class:`FaultPlan`: crashes, partitions, delay storms) and the
  recovery-time bookkeeping (:class:`RecoveryRecord`).
"""

from repro.runtime.agents import (
    Agent,
    LinkAgent,
    NodeAgent,
    PopulationCollisionError,
    SourceAgent,
    link_address,
    merge_populations,
    node_address,
    source_address,
)
from repro.runtime.asynchronous import AsyncConfig, AsynchronousRuntime, retention, run_chaos
from repro.runtime.faults import (
    CrashFault,
    DelayStorm,
    FaultPlan,
    PartitionFault,
    RecoveryRecord,
    agent_addresses,
)
from repro.runtime.multirate import (
    DemandUpdate,
    MultirateNodeAgent,
    MultirateSourceAgent,
    MultirateSynchronousRuntime,
)
from repro.runtime.messages import (
    LinkPriceUpdate,
    Message,
    NodePriceUpdate,
    PopulationUpdate,
    RateUpdate,
)
from repro.runtime.synchronous import SynchronousRuntime

__all__ = [
    "Agent",
    "AsyncConfig",
    "AsynchronousRuntime",
    "CrashFault",
    "DelayStorm",
    "DemandUpdate",
    "FaultPlan",
    "LinkAgent",
    "LinkPriceUpdate",
    "Message",
    "MultirateNodeAgent",
    "MultirateSourceAgent",
    "MultirateSynchronousRuntime",
    "NodeAgent",
    "NodePriceUpdate",
    "PartitionFault",
    "PopulationCollisionError",
    "PopulationUpdate",
    "RateUpdate",
    "RecoveryRecord",
    "SourceAgent",
    "SynchronousRuntime",
    "agent_addresses",
    "link_address",
    "merge_populations",
    "node_address",
    "retention",
    "run_chaos",
    "source_address",
]
