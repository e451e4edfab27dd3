"""Batch verification: many traces, one campaign.

The paper's hardness results (Theorem 4.2: VMC is NP-complete) mean
campaign-scale throughput comes from *never solving the same instance
twice* and from *parallelizing across instances*, not from a faster
single solve.  This module is that data plane:

1. **Scan** — every source (trace file or in-memory execution) is
   decomposed into per-address tasks, exactly like
   :func:`repro.engine.plan_vmc` would.
2. **Dedup** — every task is canonicalized up front
   (:func:`repro.engine.cache.canonicalize`) and grouped by canonical
   key *before any solving*: N tasks collapse to M unique instances,
   and each unique is decided exactly once per batch.
3. **Serve** — each unique is looked up once in the (store-backed)
   cache; a hit passes the executor's on-hit validation
   (:func:`repro.engine.executor.validated_hit`: witness replay always,
   certificates under ``--certify``) and is served before any
   pre-pass runs, which is the warm-store fast path.  A corrupt or
   stale record is evicted from both tiers and recomputed, never
   served.
4. **Solve** — the misses are planned (pre-pass and portfolio, as
   :func:`repro.engine.plan_vmc` would) and decided by the executor's
   one serial/pooled runner (:func:`repro.engine.executor.run_tasks`)
   under the batch's :class:`~repro.engine.ResiliencePolicy`: the run
   budget, per-task deadlines, crash retries and quarantine are the
   executor's.  Results come back keyed by task, and the parent alone
   writes them to the cache and store.  An engine exception or a
   failed certification stays with its unique and becomes its
   sources' ``error``; it never fails the batch.
5. **Report** — results fan back out to their sources; the aggregate
   per source is ``VIOLATED > UNKNOWN > holds`` and the machine-
   readable report records per-source verdicts, hit provenance
   (solved / memory / store / dedup) and certified counts.

``repro batch`` (the CLI front-end) adds ``--dry-run``: print the
dedup plan and predicted store hits without solving anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.core.result import VerificationResult
from repro.core.types import Address, Execution, Operation
from repro.engine.backend import Instance
from repro.engine.cache import CanonicalInstance, ResultCache, canonicalize
from repro.engine.certify import CertificationError
from repro.engine.executor import (
    NO_RESILIENCE,
    WINDOW_PER_JOB,
    ResiliencePolicy,
    resolve_pool,
    run_tasks,
    validated_hit,
)
from repro.engine.planner import _prepassed_task
from repro.engine.registry import vmc_registry
from repro.engine.store import ResultStore
from repro.util.deadline import Deadline


# ---------------------------------------------------------------------
# Plan data model
# ---------------------------------------------------------------------
@dataclass
class BatchTask:
    """One (source, address) verification obligation."""

    source: int
    address: Any
    unique: int


@dataclass
class UniqueInstance:
    """One canonical instance: solved once, served to every duplicate."""

    canon: CanonicalInstance
    sub: Execution
    address: Any
    write_order: Sequence[Operation] | None
    count: int = 1


@dataclass
class SourceOutcome:
    """Per-source verdict plus batch provenance."""

    label: str
    result: VerificationResult | None = None
    error: str | None = None
    tasks: int = 0
    unique: int = 0
    provenance: dict[str, int] = field(default_factory=dict)
    certified: int = 0

    @property
    def verdict(self) -> str:
        if self.error is not None:
            return "error"
        if self.result is None:
            return "error"
        if self.result.unknown:
            return "UNKNOWN"
        return "holds" if self.result.holds else "VIOLATED"


@dataclass
class BatchPlan:
    """The scan + dedup product: everything but the solving."""

    labels: list[str]
    tasks: list[BatchTask]
    uniques: list[UniqueInstance]
    errors: dict[int, str]
    #: Uniques already present in the store (``--dry-run`` predictor;
    #: -1 = no store attached).
    predicted_store_hits: int = -1

    @property
    def dedup_ratio(self) -> float:
        return len(self.tasks) / len(self.uniques) if self.uniques else 1.0

    def describe(self, jobs: int = 1) -> str:
        """The ``--dry-run`` rendering of the plan."""
        lines = [
            f"batch plan: {len(self.labels)} sources, "
            f"{len(self.tasks)} tasks -> {len(self.uniques)} unique "
            f"instances ({self.dedup_ratio:.2f}x dedup)"
        ]
        if self.predicted_store_hits >= 0:
            to_solve = len(self.uniques) - self.predicted_store_hits
            lines.append(
                f"store: {self.predicted_store_hits} predicted hits, "
                f"{to_solve} to solve"
            )
        if jobs <= 1:
            lines.append("admission: jobs=1, misses run serially")
        else:
            lines.append(
                f"admission: jobs={jobs} on the executor's auto pool, "
                f"window {WINDOW_PER_JOB * jobs} in flight"
            )
        if self.errors:
            for idx in sorted(self.errors):
                lines.append(f"error: {self.labels[idx]}: {self.errors[idx]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------
# Scan + dedup
# ---------------------------------------------------------------------
def plan_batch(
    sources: Sequence[tuple[str, Execution | None, str | None]],
    write_orders: Sequence[Mapping[Address, Sequence[Operation]] | None]
    | None = None,
    store: ResultStore | None = None,
) -> BatchPlan:
    """Canonicalize and deduplicate every (source, address) task.

    ``sources`` is a list of ``(label, execution, error)`` triples —
    a failed load arrives as ``(label, None, message)`` and is carried
    through to the report without sinking the batch.
    """
    labels = [label for label, _, _ in sources]
    errors = {
        i: err for i, (_, ex, err) in enumerate(sources) if err is not None
    }
    tasks: list[BatchTask] = []
    uniques: list[UniqueInstance] = []
    by_key: dict[Any, int] = {}
    for i, (_, execution, err) in enumerate(sources):
        if err is not None or execution is None:
            continue
        wos = write_orders[i] if write_orders is not None else None
        for addr in execution.constrained_addresses():
            sub = execution.restrict_to_address(addr)
            wo = wos.get(addr) if wos else None
            canon = canonicalize(sub, wo, "vmc", "auto")
            uidx = by_key.get(canon.key)
            if uidx is None:
                uidx = by_key[canon.key] = len(uniques)
                uniques.append(
                    UniqueInstance(
                        canon=canon,
                        sub=sub,
                        address=addr,
                        write_order=wo,
                    )
                )
            else:
                uniques[uidx].count += 1
            tasks.append(BatchTask(source=i, address=addr, unique=uidx))
    predicted = -1
    if store is not None:
        predicted = sum(1 for u in uniques if store.contains(u.canon))
    return BatchPlan(
        labels=labels,
        tasks=tasks,
        uniques=uniques,
        errors=errors,
        predicted_store_hits=predicted,
    )


# ---------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------
@dataclass
class BatchStats:
    """Batch-level execution counters (the report's ``totals``)."""

    sources: int = 0
    errors: int = 0
    holds: int = 0
    violated: int = 0
    unknown: int = 0
    tasks: int = 0
    unique: int = 0
    solved: int = 0
    memory_hits: int = 0
    store_hits: int = 0
    dedup_served: int = 0
    certified: int = 0
    budget_expired: int = 0
    retries: int = 0
    quarantined: int = 0
    wall_s: float = 0.0


def _error_text(e: Exception) -> str:
    if isinstance(e, CertificationError):
        return f"certification failed: {e}"
    return f"{type(e).__name__}: {e}"


def _run_uniques(
    plan: BatchPlan,
    jobs: int,
    cache: ResultCache,
    policy: ResiliencePolicy,
    certify: str,
    prepass: bool,
    portfolio: Any,
    stats: BatchStats,
) -> dict[int, tuple[VerificationResult | None, str | None]]:
    """Decide every unique instance; returns uidx -> (result, error).

    Validated hits are served first; each miss becomes a task whose
    ``order`` is its unique's index, and the executor decides them all.
    """
    run_deadline = Deadline.after(policy.timeout)
    registry = vmc_registry()
    decided: dict[int, tuple[VerificationResult | None, str | None]] = {}
    tasks = []
    for uidx, unique in enumerate(plan.uniques):
        instance = Instance(
            unique.sub, address=unique.address,
            write_order=unique.write_order, problem="vmc",
        )
        try:
            hit = validated_hit(cache, unique.canon, instance, certify)
            if hit is not None:
                decided[uidx] = (hit, None)
                continue
            tasks.append(_prepassed_task(
                uidx, unique.address, instance, "auto", registry,
                prepass, portfolio,
            ))
        except Exception as e:  # noqa: BLE001 - one bad instance never sinks a batch
            decided[uidx] = (None, _error_text(e))
    # No cache here: every miss was already looked up above, and the
    # store key is the batch's own canonical key, written below.
    outcomes, _cancelled = run_tasks(
        tasks, jobs, None, policy, run_deadline, certify,
        pool=resolve_pool("auto", tasks, jobs), early_exit=False,
    )
    for uidx, got in outcomes.items():
        stats.retries += got.attempts - 1
        stats.quarantined += got.quarantined
        if got.error is not None:
            decided[uidx] = (None, _error_text(got.error))
            continue
        result = got.result
        if result.unknown:
            stats.budget_expired += result.unknown_reason == "budget"
        else:
            cache.store(plan.uniques[uidx].canon, result)
        decided[uidx] = (result, None)
    return decided


# ---------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------
def _aggregate_source(
    outcome: SourceOutcome,
    item_results: list[tuple[Any, VerificationResult]],
) -> None:
    """VIOLATED > UNKNOWN > holds, with per-address detail attached."""
    per_address = {addr: res for addr, res in item_results}
    violated = [r for _, r in item_results if r.violated]
    unknowns = [r for _, r in item_results if r.unknown]
    if violated:
        agg = violated[0]
    elif unknowns:
        first = unknowns[0]
        agg = VerificationResult.make_unknown(
            method="batch",
            reason=first.unknown_reason or "budget",
            detail=first.reason,
            address=first.address,
        )
    elif item_results:
        agg = VerificationResult(
            holds=True, method="batch",
            reason="coherent at every constrained address",
        )
    else:
        agg = VerificationResult(
            holds=True, method="trivial", schedule=[],
            reason="no constrained addresses",
        )
    agg.per_address = per_address
    outcome.result = agg


def _classify(result: VerificationResult) -> str:
    if result.stats.get("store_hit"):
        return "store"
    if result.stats.get("cache_hit"):
        return "memory"
    return "solved"


def run_plan(
    plan: BatchPlan,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    prepass: bool = True,
    portfolio: Any = True,
) -> tuple[list[SourceOutcome], BatchStats]:
    """Decide a planned batch and fan results back to the sources."""
    t0 = perf_counter()
    stats = BatchStats(
        sources=len(plan.labels),
        tasks=len(plan.tasks),
        unique=len(plan.uniques),
    )
    if cache is None:
        cache = ResultCache(store=store)
    decided = _run_uniques(
        plan, jobs, cache, resilience or NO_RESILIENCE, certify, prepass,
        portfolio, stats,
    )
    cache.flush_store()

    outcomes = [SourceOutcome(label=label) for label in plan.labels]
    for idx, message in plan.errors.items():
        outcomes[idx].error = message
    served: set[int] = set()
    items_by_source: dict[int, list[tuple[Any, VerificationResult]]] = {}
    for task in plan.tasks:
        outcome = outcomes[task.source]
        outcome.tasks += 1
        result, err = decided.get(task.unique, (None, "never scheduled"))
        if err is not None:
            outcome.error = err
            continue
        assert result is not None
        if task.unique not in served:
            served.add(task.unique)
            outcome.unique += 1
            kind = _classify(result)
            stats.solved += kind == "solved"
            stats.memory_hits += kind == "memory"
            stats.store_hits += kind == "store"
        else:
            kind = "dedup"
            stats.dedup_served += 1
        outcome.provenance[kind] = outcome.provenance.get(kind, 0) + 1
        if result.stats.get("certified"):
            outcome.certified += 1
            stats.certified += 1
        materialized = result
        if task.address != result.address:
            # A duplicate under a different address label: same verdict,
            # re-addressed.
            materialized = VerificationResult(
                holds=result.holds,
                method=result.method,
                schedule=result.schedule,
                reason=result.reason,
                address=task.address,
                stats=dict(result.stats),
                unknown=result.unknown,
                certificate=result.certificate,
            )
        items_by_source.setdefault(task.source, []).append(
            (task.address, materialized)
        )
    for i, outcome in enumerate(outcomes):
        if outcome.error is not None:
            stats.errors += 1
            continue
        _aggregate_source(outcome, items_by_source.get(i, []))
        assert outcome.result is not None
        if outcome.result.violated:
            stats.violated += 1
        elif outcome.result.unknown:
            stats.unknown += 1
        else:
            stats.holds += 1
    stats.wall_s = perf_counter() - t0
    return outcomes, stats


# ---------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------
def verify_many(
    executions: Sequence[Execution],
    write_orders: Sequence[Mapping[Address, Sequence[Operation]] | None]
    | None = None,
    labels: Sequence[str] | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    store: ResultStore | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    prepass: bool = True,
    portfolio: Any = True,
) -> list[SourceOutcome]:
    """Verify many in-memory executions as one deduplicated batch.

    The campaign front-end: all (execution, address) tasks are
    canonicalized and deduplicated across the whole batch before any
    solving, then decided through the shared ``cache`` (optionally
    store-backed for cross-run warm starts).  Returns one
    :class:`SourceOutcome` per execution, in order; a per-execution
    engine exception lands in ``outcome.error`` instead of raising.
    """
    if labels is None:
        labels = [f"<execution {i}>" for i in range(len(executions))]
    sources = [
        (label, execution, None)
        for label, execution in zip(labels, executions)
    ]
    if cache is None and store is not None:
        cache = ResultCache(store=store)
    elif cache is not None and store is None:
        store = cache.store_tier
    plan = plan_batch(sources, write_orders=write_orders)
    outcomes, _stats = run_plan(
        plan,
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
        prepass=prepass,
        portfolio=portfolio,
    )
    return outcomes


def load_sources(
    paths: Sequence[str],
) -> list[tuple[str, Execution | None, str | None]]:
    """Load trace files (any supported format); failures become
    per-source errors, not batch failures."""
    from repro.core.serialize import parse_trace_bytes
    from pathlib import Path

    sources: list[tuple[str, Execution | None, str | None]] = []
    for path_str in paths:
        path = Path(path_str)
        try:
            execution = parse_trace_bytes(
                path.read_bytes(), str(path), path.suffix
            )
            sources.append((str(path), execution, None))
        except (OSError, ValueError) as e:
            sources.append((str(path), None, str(e)))
    return sources


def run_batch(
    paths: Sequence[str],
    jobs: int = 1,
    store: ResultStore | None = None,
    cache: ResultCache | None = None,
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
    prepass: bool = True,
    portfolio: Any = True,
    dry_run: bool = False,
) -> dict[str, Any]:
    """Verify a list of trace files as one campaign.

    Returns the machine-readable batch report (JSON-shaped).  With
    ``dry_run`` the plan is computed — including predicted store hits —
    but nothing is solved.
    """
    t0 = perf_counter()
    if cache is None and store is not None:
        cache = ResultCache(store=store)
    elif cache is not None and store is None:
        store = cache.store_tier
    sources = load_sources(paths)
    plan = plan_batch(sources, store=store)
    report: dict[str, Any] = {
        "version": 1,
        "problem": "vmc",
        "jobs": jobs,
        "certify": certify,
        "dry_run": dry_run,
        "store": {
            "path": store.path,
            "n_shards": store.n_shards,
            "max_mb": (
                store.max_bytes / (1024 * 1024)
                if store.max_bytes is not None
                else None
            ),
        }
        if store is not None
        else None,
        "plan": {
            "sources": len(plan.labels),
            "tasks": len(plan.tasks),
            "unique": len(plan.uniques),
            "dedup_ratio": round(plan.dedup_ratio, 4),
            "predicted_store_hits": plan.predicted_store_hits,
            "text": plan.describe(jobs),
        },
    }
    if dry_run:
        report["files"] = [
            {"path": label, "error": plan.errors.get(i)}
            for i, label in enumerate(plan.labels)
        ]
        report["totals"] = {
            "files": len(plan.labels),
            "errors": len(plan.errors),
            "wall_s": round(perf_counter() - t0, 6),
        }
        return report
    outcomes, stats = run_plan(
        plan,
        jobs=jobs,
        cache=cache,
        store=store,
        resilience=resilience,
        certify=certify,
        prepass=prepass,
        portfolio=portfolio,
    )
    report["files"] = [
        {
            "path": o.label,
            "verdict": o.verdict,
            "reason": (
                o.error if o.error is not None
                else o.result.reason if o.result is not None
                else ""
            ),
            "tasks": o.tasks,
            "unique": o.unique,
            "provenance": o.provenance,
            "certified": o.certified,
        }
        for o in outcomes
    ]
    totals: dict[str, Any] = {
        "files": stats.sources,
        "errors": stats.errors,
        "holds": stats.holds,
        "violated": stats.violated,
        "unknown": stats.unknown,
        "tasks": stats.tasks,
        "unique": stats.unique,
        "solved": stats.solved,
        "memory_hits": stats.memory_hits,
        "store_hits": stats.store_hits,
        "dedup_served": stats.dedup_served,
        "certified": stats.certified,
        "budget_expired": stats.budget_expired,
        "retries": stats.retries,
        "quarantined": stats.quarantined,
        "wall_s": round(perf_counter() - t0, 6),
    }
    if store is not None:
        totals["store"] = store.stats.as_dict()
    report["totals"] = totals
    return report


def batch_exit_code(report: dict[str, Any]) -> int:
    """CLI exit discipline: violated (1) > error (2) > unknown (3) > 0."""
    totals = report.get("totals", {})
    if totals.get("violated"):
        return 1
    if totals.get("errors"):
        return 2
    if totals.get("unknown"):
        return 3
    return 0
