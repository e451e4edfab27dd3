"""Shared-memory multiprocessor simulators feeding the verifiers.

The paper's verifiers consume *executions* — per-process operation
histories with observed values — plus, for the Section 5.2 fast path,
the order in which the memory system serialized the writes.  Real
hardware traces are not available offline, so this subpackage provides
the closest synthetic equivalents, on two substrates:

* a snooping **bus** MSI/MESI multiprocessor: set-associative caches
  (:mod:`repro.memsys.cache`), an atomic snooping bus whose transaction
  log *is* the per-address write-order (:mod:`repro.memsys.bus`);
* a split-transaction **directory** MSI multiprocessor
  (:mod:`repro.memsys.directory`): home-node-sharded directories with
  transient busy states, NACK/retry, writeback races, and a message
  interconnect with per-link FIFO/reorderable queues and seeded delay
  models (:mod:`repro.memsys.interconnect`) — the write-order is
  exported at the directory's serialization point;

plus, shared by both:

* processors running scripted workloads (:mod:`repro.memsys.processor`,
  :mod:`repro.memsys.workloads`),
* a fault library spanning architectural sites (dropped/corrupted
  writes, lost invalidations) and message-level sites (drop / dup /
  delay / reorder, stale sharer masks, directory-state and
  writeback-race corruption) — :mod:`repro.memsys.faults`,
* a recorder producing :class:`repro.core.Execution` objects,
  write-orders, and golden-replay divergences
  (:mod:`repro.memsys.recorder`),
* a **latency oracle** classifying every injection as architecturally
  visible or latent, with an independent Section 5.2 checker
  (:mod:`repro.memsys.oracle`),
* ground-truth **campaigns** sweeping (site × substrate × delay model)
  cells through the batch engine and holding the verifier to the
  visible ⇒ VIOLATED / latent ⇒ HOLDS contract
  (:mod:`repro.memsys.campaign`).

Fault-free runs are coherent by construction on both substrates; the
test-suite verifies that, and verifies that injected faults the oracle
proves visible produce violations the verifiers catch — the
error-detection use case motivating the paper.
"""

from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import (
    FaultConfig,
    FaultKind,
    FaultSpec,
    supported_faults,
)
from repro.memsys.interconnect import Interconnect, Message, make_delay_model
from repro.memsys.campaign import (
    SUBSTRATES,
    WORKLOADS,
    CampaignReport,
    CellResult,
    campaign_table,
    run_campaign,
)
from repro.memsys.oracle import OracleReport, classify_run
from repro.memsys.workloads import (
    false_sharing_workload,
    lock_contention_workload,
    producer_consumer_workload,
    random_shared_workload,
)
from repro.memsys.recorder import Divergence, RunResult

__all__ = [
    "MultiprocessorSystem",
    "DirectorySystem",
    "SystemConfig",
    "SUBSTRATES",
    "WORKLOADS",
    "FaultConfig",
    "FaultKind",
    "FaultSpec",
    "supported_faults",
    "Interconnect",
    "Message",
    "make_delay_model",
    "CampaignReport",
    "CellResult",
    "campaign_table",
    "run_campaign",
    "OracleReport",
    "classify_run",
    "Divergence",
    "RunResult",
    "random_shared_workload",
    "producer_consumer_workload",
    "false_sharing_workload",
    "lock_contention_workload",
]
