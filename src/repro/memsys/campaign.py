"""Ground-truth fault mega-campaigns: thousands of seeded executions.

The paper motivates trace verification as an error-detection mechanism;
a single run says little because many faults are architecturally latent
(the trace stays coherent).  A campaign sweeps seeds over every
(fault site × substrate × delay model) cell and holds the verifier to
the **ground-truth contract** established by the latency oracle
(:mod:`repro.memsys.oracle`):

* every run the oracle proves incoherent (it contains *visible*
  injections) must come back VIOLATED;
* every clean control run and every run with only *latent* injections
  must come back HOLDS — a VIOLATED there is a false alarm;
* abandoned verifications (``unknown`` under a resilience deadline) and
  errors are reported per cell, never silent.

Every cell gets one explicit fault-free **control run** verified under
the same pipeline, so ``false_alarms`` is exercised on every cell
rather than depending on the injector happening not to fire.

Verification routes through the batch engine
(:func:`repro.engine.verify_many`): *all* runs of *all* cells are
simulated first, then canonicalized and deduplicated across the whole
campaign before any solving — fingerprint-identical per-address
histories, which campaigns repeat constantly, are decided once.
``jobs`` decides the deduplicated instances on the engine's pool, one
:class:`~repro.engine.ResultCache` carries hits across cells, a
``resilience`` policy bounds the whole sweep, and ``certify`` threads
proof-carrying verdicts end to end.

A ``store`` (:class:`~repro.engine.ResultStore`) warm-starts repeated
campaigns from disk.  Simulation is seeded and deterministic, so each
simulated run's execution, write-orders, injections and oracle report
are stored under its cell parameters, seed and a digest of the
package sources; a repeated sweep replays them instead of simulating
again.  A replayed run is never a recorded verdict: it goes through
the same :func:`~repro.engine.verify_many` call and the same
aggregation as a live run, so its verdicts come from the store's
verdict entries and are re-checked on load under ``certify``.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.engine import ResultCache, verify_many
from repro.engine.store import ResultStore
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import FaultConfig, FaultKind, supported_faults
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import (
    false_sharing_workload,
    lock_contention_workload,
    producer_consumer_workload,
    random_shared_workload,
)

SUBSTRATES: dict[str, Callable] = {
    "bus": MultiprocessorSystem,
    "directory": DirectorySystem,
}

#: Workload shapes a campaign can sweep.  ``random`` is the default
#: uniform load/store mix; the others reuse the idiomatic generators
#: (chains, false sharing, test-and-set locks) so fault sites are
#: exercised under qualitatively different sharing patterns.
WORKLOADS = ("random", "producer-consumer", "false-sharing", "lock")


def _make_workload(
    workload: str,
    num_processors: int,
    ops_per_processor: int,
    num_addresses: int,
    write_fraction: float,
    values: str,
    seed: int,
):
    if workload == "random":
        return random_shared_workload(
            num_processors=num_processors,
            ops_per_processor=ops_per_processor,
            num_addresses=num_addresses,
            write_fraction=write_fraction,
            values=values,
            seed=seed,
        )
    if workload == "producer-consumer":
        return producer_consumer_workload(
            items=max(1, ops_per_processor // 2),
            num_consumers=max(1, num_processors - 1),
            seed=seed,
        )
    if workload == "false-sharing":
        return false_sharing_workload(
            num_processors=num_processors,
            ops_per_processor=ops_per_processor,
            values=values,
            seed=seed,
        )
    if workload == "lock":
        return lock_contention_workload(
            num_processors=num_processors,
            acquisitions_per_processor=max(1, ops_per_processor // 9),
            seed=seed,
        )
    raise ValueError(
        f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}"
    )

#: Default protocol per substrate (the directory is MSI-only).
_PROTOCOLS = {"bus": "MESI", "directory": "MSI"}


#: The RunResult fields campaign aggregation reads; a stored run is
#: exactly these.
_RUN_FIELDS = ("execution", "write_orders", "fault_events", "oracle")


@functools.cache
def _source_digest() -> str | None:
    """SHA-256 over the ``repro`` package's ``.py`` sources, computed
    once per process.  Part of every stored run's key, so a run is only
    replayed by the code that simulated it; ``None`` (no replay) when
    no source can be read."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    found = False
    for path in sorted(root.rglob("*.py")):
        try:
            data = path.read_bytes()
        except OSError:
            continue
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(hashlib.sha256(data).digest())
        found = True
    return digest.hexdigest() if found else None


@dataclass
class CellResult:
    """Aggregated outcome for one (site, substrate, delay model) cell."""

    site: FaultKind
    substrate: str
    delay_model: str
    runs: int = 0
    control_runs: int = 0
    injected_runs: int = 0  # runs with >= 1 injection
    injections: int = 0  # total injected events
    visible: int = 0  # events the oracle proves visible
    latent: int = 0  # events the oracle proves latent
    visible_runs: int = 0  # runs the oracle expects VIOLATED
    detected_visible: int = 0  # ... that the verifier flagged
    missed_visible: int = 0  # ... that the verifier passed (breach)
    false_alarms: int = 0  # HOLDS-expected runs flagged VIOLATED (breach)
    unknown: int = 0  # abandoned verdicts (resilience) — coverage loss
    errors: int = 0  # engine exceptions — coverage loss
    certified: int = 0  # certificate-carrying per-address results

    @property
    def key(self) -> str:
        return f"{self.substrate}/{self.site.value}/{self.delay_model}"

    @property
    def detection_rate(self) -> float:
        """Detected fraction of the runs that were *provably* incoherent
        (latent injections are excluded by construction — demanding
        their detection would demand false positives)."""
        return (
            self.detected_visible / self.visible_runs
            if self.visible_runs
            else 0.0
        )

    @property
    def coverage(self) -> float:
        """Fraction of runs that produced a verdict: partial coverage
        (a failed cell in a long sweep) is visible, not silent."""
        decided = self.runs - self.unknown - self.errors
        return decided / self.runs if self.runs else 0.0

    def row(self) -> str:
        rate = f"{self.detection_rate:.0%}" if self.visible_runs else "n/a"
        line = (
            f"{self.site.value:<24} {self.substrate:<10} "
            f"{self.delay_model:<14} {self.injections:>6} {self.visible:>7} "
            f"{self.latent:>6} {self.detected_visible:>8} {rate:>6}"
        )
        flags = []
        if self.missed_visible:
            flags.append(f"{self.missed_visible} MISSED")
        if self.false_alarms:
            flags.append(f"{self.false_alarms} FALSE-ALARM")
        if self.unknown or self.errors:
            flags.append(
                f"coverage {self.coverage:.0%}: {self.unknown} unknown, "
                f"{self.errors} errors"
            )
        if flags:
            line += "  [" + "; ".join(flags) + "]"
        return line


@dataclass
class CampaignReport:
    """The whole sweep: per-cell results plus the contract verdict."""

    cells: list[CellResult] = field(default_factory=list)
    total_runs: int = 0
    total_injections: int = 0
    #: Batch-engine provenance totals across every run (solved /
    #: memory / store / dedup hit counts).
    provenance: dict[str, int] = field(default_factory=dict)
    certified: int = 0
    #: Human-readable contract breaches (missed visibles, false alarms,
    #: spontaneous violations), capped; empty iff ``contract_ok``.
    contract_failures: list[str] = field(default_factory=list)
    #: Wall-clock split between the two campaign phases.  With a
    #: ``store``, ``simulate_s`` covers only the runs it did not hold
    #: (plus the lookups that replayed the rest); ``verify_s`` always
    #: covers every run, replayed or not.
    simulate_s: float = 0.0
    verify_s: float = 0.0

    MAX_FAILURES = 50

    @property
    def contract_ok(self) -> bool:
        return not self.contract_failures

    @property
    def unknown(self) -> int:
        return sum(c.unknown for c in self.cells)

    @property
    def errors(self) -> int:
        return sum(c.errors for c in self.cells)

    def _fail(self, message: str) -> None:
        if len(self.contract_failures) < self.MAX_FAILURES:
            self.contract_failures.append(message)
        elif len(self.contract_failures) == self.MAX_FAILURES:
            self.contract_failures.append("... further breaches elided")

    def to_json(self) -> dict:
        return {
            "total_runs": self.total_runs,
            "total_injections": self.total_injections,
            "contract_ok": self.contract_ok,
            "contract_failures": list(self.contract_failures),
            "unknown": self.unknown,
            "errors": self.errors,
            "certified": self.certified,
            "provenance": dict(self.provenance),
            "simulate_s": self.simulate_s,
            "verify_s": self.verify_s,
            "cells": [
                {
                    "site": c.site.value,
                    "substrate": c.substrate,
                    "delay_model": c.delay_model,
                    "runs": c.runs,
                    "injections": c.injections,
                    "visible": c.visible,
                    "latent": c.latent,
                    "visible_runs": c.visible_runs,
                    "detected_visible": c.detected_visible,
                    "missed_visible": c.missed_visible,
                    "false_alarms": c.false_alarms,
                    "unknown": c.unknown,
                    "errors": c.errors,
                    "detection_rate": c.detection_rate,
                    "coverage": c.coverage,
                    "certified": c.certified,
                }
                for c in self.cells
            ],
        }


def run_campaign(
    sites: list[FaultKind] | None = None,
    substrates: list[str] | None = None,
    runs_per_cell: int = 20,
    num_processors: int = 4,
    ops_per_processor: int = 40,
    num_addresses: int = 3,
    write_fraction: float = 0.35,
    fault_rate: float = 0.1,
    max_events: int | None = 1,
    base_seed: int = 0,
    values: str = "unique",
    workload: str = "random",
    delay_models: list[str] | None = None,
    num_homes: int = 2,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience=None,
    certify: str = "off",
    prepass: bool = True,
    portfolio=True,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Sweep seeds over every (fault site × substrate × delay model)
    cell and verify the whole campaign as one deduplicated batch.

    Each cell simulates ``runs_per_cell`` seeded fault-injected runs
    *plus one fault-free control run*; the oracle classifies every
    injection, and the returned report holds the verifier to the
    ground-truth contract (see the module docstring).  ``delay_models``
    applies to the directory substrate only (the bus is atomic; its
    single cell per site is labelled ``atomic``).

    With a ``store``, every simulated run is recorded in it and a
    repeated sweep replays the runs it holds instead of simulating
    them, counting each under the ``"replayed"`` provenance key.
    Replayed runs are verified like live ones.
    """
    substrates = substrates or list(SUBSTRATES)
    for s in substrates:
        if s not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {s!r}; choose from {sorted(SUBSTRATES)}"
            )
    delay_models = list(delay_models or ["fixed:1"])
    cache = cache if cache is not None else ResultCache(store=store)
    digest = _source_digest() if store is not None else None

    report = CampaignReport()
    cells: list[CellResult] = []
    #: One (cell index, control, label, run fields) per run, in sweep
    #: order; the fields are live or replayed from the store.
    entries: list[tuple[int, bool, str, dict]] = []
    replayed = 0

    say = progress or (lambda _msg: None)
    t_start = time.perf_counter()
    seed_counter = 0
    for substrate in substrates:
        system_cls = SUBSTRATES[substrate]
        supported = supported_faults(substrate)
        cell_sites = [k for k in (sites or supported) if k in supported]
        cell_delays = delay_models if substrate == "directory" else ["atomic"]
        for delay in cell_delays:
            for site in cell_sites:
                cell = CellResult(
                    site=site, substrate=substrate, delay_model=delay
                )
                cells.append(cell)
                say(f"simulating {cell.key}: {runs_per_cell}+1 runs")
                for i in range(runs_per_cell + 1):
                    control = i == runs_per_cell
                    seed = base_seed + seed_counter
                    seed_counter += 1
                    label = f"{cell.key}/seed={seed}" + (
                        "/control" if control else ""
                    )
                    key = fields = None
                    if digest is not None:
                        key = (
                            "campaign-run", digest, substrate, site.value,
                            delay, seed, control, num_processors,
                            ops_per_processor, num_addresses,
                            write_fraction, values, workload, fault_rate,
                            max_events, num_homes,
                        )
                        fields = store.lookup(key)
                    if fields is not None:
                        replayed += 1
                    else:
                        scripts, init = _make_workload(
                            workload,
                            num_processors=num_processors,
                            ops_per_processor=ops_per_processor,
                            num_addresses=num_addresses,
                            write_fraction=write_fraction,
                            values=values,
                            seed=seed,
                        )
                        cfg = SystemConfig(
                            num_processors=num_processors,
                            protocol=_PROTOCOLS[substrate],
                            seed=seed,
                            num_homes=num_homes,
                            delay_model=(
                                delay if delay != "atomic" else "fixed:1"
                            ),
                        )
                        faults = (
                            FaultConfig.none()
                            if control
                            else FaultConfig(
                                kinds=frozenset([site]),
                                rate=fault_rate,
                                max_events=max_events,
                                seed=seed,
                            )
                        )
                        run = system_cls(
                            cfg, scripts, initial_memory=init, faults=faults
                        ).run()
                        fields = {f: getattr(run, f) for f in _RUN_FIELDS}
                        if key is not None:
                            store.put(key, **fields)
                    entries.append((len(cells) - 1, control, label, fields))

    report.simulate_s = round(time.perf_counter() - t_start, 4)
    say(
        f"verifying {len(entries)} executions "
        f"({len(cells)} cells, jobs={jobs}, certify={certify}"
        + (f", {replayed} replayed from the store)" if replayed else ")")
    )
    t_verify = time.perf_counter()
    outcomes = verify_many(
        [fields["execution"] for *_, fields in entries],
        write_orders=[fields["write_orders"] for *_, fields in entries],
        labels=[label for _, _, label, _ in entries],
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
        prepass=prepass,
        portfolio=portfolio,
    )
    if store is not None:
        # Run records reach disk even when ``cache`` writes through to
        # no store (verify_many only flushes the cache's own tier).
        store.flush()
    report.verify_s = round(time.perf_counter() - t_verify, 4)
    if replayed:
        report.provenance["replayed"] = replayed

    for (cell_idx, control, label, fields), outcome in zip(entries, outcomes):
        cell = cells[cell_idx]
        cell.runs += 1
        report.total_runs += 1
        if control:
            cell.control_runs += 1

        oracle = fields["oracle"]
        injections = len(fields["fault_events"])
        if injections:
            cell.injected_runs += 1
            cell.injections += injections
            report.total_injections += injections
            cell.visible += len(oracle.visible_events)
            cell.latent += len(oracle.latent_events)
        if oracle.spontaneous:
            report._fail(
                f"{label}: incoherent with no injected fault "
                f"(simulator bug): {oracle.violations}"
            )
        expected = oracle.expected_verdict
        if expected == "VIOLATED":
            cell.visible_runs += 1

        cell.certified += outcome.certified
        report.certified += outcome.certified
        for k, v in outcome.provenance.items():
            report.provenance[k] = report.provenance.get(k, 0) + v

        if outcome.error is not None:
            cell.errors += 1
            if expected == "VIOLATED":
                report._fail(
                    f"{label}: oracle expects VIOLATED but the engine "
                    f"errored: {outcome.error}"
                )
            continue
        verdict = outcome.result
        if verdict is None or verdict.unknown:
            cell.unknown += 1
            if expected == "VIOLATED":
                report._fail(
                    f"{label}: oracle expects VIOLATED but the verdict "
                    f"was abandoned (unknown)"
                )
            continue
        if expected == "VIOLATED":
            if verdict.violated:
                cell.detected_visible += 1
            else:
                cell.missed_visible += 1
                report._fail(
                    f"{label}: missed visible fault — oracle proves "
                    f"incoherence at {sorted(oracle.violations)} but the "
                    f"verifier answered holds"
                )
        elif verdict.violated:
            cell.false_alarms += 1
            kind = "control run" if control else "latent-only run"
            report._fail(
                f"{label}: false alarm — {kind} flagged VIOLATED "
                f"({verdict.reason})"
            )

    report.cells = cells
    return report


def campaign_table(
    report: CampaignReport, cache: ResultCache | None = None
) -> str:
    """Render the detection-rate table per (site × substrate × delay).

    When the sweep's shared ``cache`` is supplied, a footer reports
    aggregate cache effectiveness across the whole campaign.
    """
    lines = [
        f"{'fault site':<24} {'substrate':<10} {'delay':<14} {'events':>6} "
        f"{'visible':>7} {'latent':>6} {'caught':>8} {'rate':>6}"
    ]
    lines.extend(cell.row() for cell in report.cells)
    lines.append(
        f"contract: {'OK' if report.contract_ok else 'BREACHED'} — "
        f"{report.total_runs} runs, {report.total_injections} injections, "
        f"{report.unknown} unknown, {report.errors} errors"
    )
    for failure in report.contract_failures[:10]:
        lines.append(f"  breach: {failure}")
    if cache is not None:
        lines.append(f"cache: {cache.stats.summary()}")
    return "\n".join(lines)
