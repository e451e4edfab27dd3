"""Task execution: serial, thread-pooled or process-pooled; cache-aware,
early-exiting, and resilient.

``jobs=1`` runs the plan in order on the calling thread — fully
deterministic, the right mode for debugging and the default.
``jobs>1`` fans tasks out over a :class:`concurrent.futures` pool,
exploiting the per-address independence of coherence (paper Section 3):

* ``pool="thread"`` — cheap to spin up, but the pure-Python backends
  hold the GIL, so threads mostly overlap I/O and cache waits;
* ``pool="process"`` — true multi-core scaling.  Tasks (including their
  pre-pass state) are pickled into workers; the result cache stays in
  the parent, which resolves hits and pre-pass-decided tasks inline
  before anything is submitted, and stores worker results on
  completion.

Submission is windowed (``WINDOW_PER_JOB × jobs`` tasks in flight) so
an early exit has something left to cancel: after the first *violated*
task the executor cancels every not-yet-started future, stops
submitting, and counts the avoided work in ``EngineReport.cancelled``.
In-flight tasks are harvested so their results are not silently
discarded.

Resilience (:class:`ResiliencePolicy`) hardens the run against the
failure modes of long campaigns:

* **deadlines** — each task runs under ``task_timeout`` (observed
  cooperatively through the backends' stop checks) and the whole run
  under the ``timeout`` wall-clock budget; expiry yields a sound
  UNKNOWN result with a recorded reason, never a hang or exception;
* **crash recovery** — a dead worker (``BrokenProcessPool``) rebuilds
  the pool, and the victim tasks are retried up to ``retries`` times
  with exponential backoff; a task that keeps killing workers is
  *quarantined*: run once in-process (one bad pickle cannot sink a
  sweep), and reported UNKNOWN(crashed) if it still fails;
* **Ctrl-C** — ``KeyboardInterrupt`` shuts the pool down with
  ``cancel_futures=True`` before re-raising, so no workers are
  orphaned;
* **chaos** — a :class:`~repro.engine.chaos.ChaosSpec` injects seeded
  crashes, stalls, lost results and slow cache I/O at exactly these
  seams, so tests can prove the above without real worker deaths.

Every mode runs through one runner, :func:`run_tasks`, which keys its
outcomes by ``task.order`` and keeps an engine exception in the failing
task's outcome: :func:`execute_plan` re-raises it, while the batch
engine (:mod:`repro.engine.batch`) turns it into that source's error.

Verdicts are identical in all modes — every backend is deterministic
and tasks share no state — though with ``early_exit`` the modes may
*report* different subsets of per-address results for an incoherent
execution (whichever tasks finished before the exit fired).
"""

from __future__ import annotations

import concurrent.futures
import time
from collections import deque
from dataclasses import dataclass
from time import perf_counter

from repro.core.result import VerificationResult
from repro.engine.backend import Instance
from repro.engine.cache import CanonicalInstance, ResultCache, canonicalize
from repro.engine.certify import (
    CERTIFY_MODES,
    CertificationError,
    ensure_certificate,
    validate_result,
)
from repro.engine.chaos import ChaosCrash, ChaosSpec, tamper_result
from repro.engine.planner import PlannedTask
from repro.engine.portfolio import PORTFOLIO_MIN_STATES, PortfolioBackend
from repro.engine.prepass import EXPONENTIAL_TIER
from repro.engine.report import EngineReport, TaskStats
from repro.util.control import Cancelled
from repro.util.deadline import Deadline

POOL_KINDS = ("thread", "process")

#: Exceptions that mean "the worker died", not "the task is wrong":
#: retried with backoff, then quarantined.  Anything else (including a
#: portfolio verdict disagreement) stays a hard error and propagates.
RETRYABLE = (ChaosCrash, concurrent.futures.BrokenExecutor)

#: Longest single retry-backoff sleep, so exponential backoff cannot
#: dominate a run that has a wall-clock budget to respect.
MAX_BACKOFF_S = 1.0

#: Pool submissions in flight per worker: enough to keep every worker
#: busy, few enough that an early exit has queued work left to cancel.
WINDOW_PER_JOB = 2


@dataclass(frozen=True)
class ResiliencePolicy:
    """Degrade-gracefully knobs for one engine run.

    The default policy is inert for healthy runs — no deadlines, no
    chaos — but still recovers crashed workers (``retries=2``), because
    a ``BrokenProcessPool`` should never cost a whole sweep.
    """

    #: Per-run wall-clock budget in seconds (``verify --timeout``).
    timeout: float | None = None
    #: Per-task soft deadline in seconds (``verify --task-timeout``).
    task_timeout: float | None = None
    #: Crash retries per task before quarantine (``verify --retries``).
    retries: int = 2
    #: Base of the exponential retry backoff (doubles per attempt).
    backoff_s: float = 0.05
    #: Deterministic fault injection (``verify --chaos``); None = off.
    chaos: ChaosSpec | None = None


#: The inert-by-default policy used when the caller passes nothing.
NO_RESILIENCE = ResiliencePolicy()


@dataclass
class _Outcome:
    """One task's execution record (richer than the public result).

    ``result`` is None exactly when the task raised ``error``: an
    engine exception stays with its task instead of sinking the run.
    """

    result: VerificationResult | None
    cache_hit: bool
    seconds: float
    attempts: int = 1
    crashes: int = 0
    quarantined: bool = False
    error: Exception | None = None

    @property
    def halts(self) -> bool:
        """Whether this outcome ends an early-exiting run."""
        return self.error is not None or self.result.violated


def _captured(step, *args) -> _Outcome:
    """Run one task step; an engine exception becomes the task's error
    outcome rather than escaping the runner."""
    try:
        return step(*args)
    except Exception as e:  # noqa: BLE001 - kept per task, see _Outcome
        return _Outcome(None, False, 0.0, error=e)


def _is_heavy(task: PlannedTask) -> bool:
    """Whether a task carries exponential-tier work worth a process.

    Pre-pass-decided tasks cost nothing; small exact searches finish in
    microseconds.  Only surviving exponential-tier tasks with a
    non-trivial state space justify paying process-pool pickling — and
    under the GIL they are also the ones a thread pool cannot speed up.
    """
    if task.prepass is not None and task.prepass.decided is not None:
        return False
    if isinstance(task.backend, PortfolioBackend):
        return True
    threshold = EXPONENTIAL_TIER if task.instance.problem == "vmc" else 0
    return (
        task.backend.tier >= threshold
        and task.run_instance.states > PORTFOLIO_MIN_STATES
    )


def resolve_pool(pool: str, tasks: list[PlannedTask], jobs: int) -> str:
    """Resolve ``pool="auto"`` to a concrete pool kind.

    Processes win only when there is CPU-bound work to parallelise:
    with ``jobs > 1`` and at least one heavy exponential-tier task the
    GIL makes a thread pool *slower* than serial, so auto picks
    ``process``; otherwise threads (cheap startup, no pickling).
    """
    if pool != "auto":
        return pool
    if jobs > 1 and any(_is_heavy(t) for t in tasks):
        return "process"
    return "thread"


def _task_key(task: PlannedTask) -> str:
    """Stable identity for chaos rolls and diagnostics."""
    return f"{task.address!r}#{task.order}"


def _decide_task(
    task: PlannedTask,
    task_timeout: float | None = None,
    chaos: ChaosSpec | None = None,
    attempt: int = 0,
    timeout_reason: str = "timeout",
    certify: str = "off",
) -> tuple[VerificationResult, float]:
    """Run one task to a finished result — no cache I/O, only picklable
    state, so this is the unit shipped to process-pool workers.

    The deadline is rebuilt worker-side from ``task_timeout`` seconds
    (monotonic clocks do not travel across process boundaries), so
    queue wait does not count against a task's soft deadline.  Expiry
    returns UNKNOWN(``timeout_reason``) — "budget" when the run budget,
    not the task's own allowance, was the binding constraint.

    With ``certify`` enabled the decided result leaves here carrying a
    certificate (:func:`~repro.engine.certify.ensure_certificate`);
    *validation* stays parent-side in :func:`_finalize`, so a worker
    can never vouch for its own verdict.  Chaos's semantic faults
    (``bad-verdict`` / ``bad-cert``) tamper *after* certification —
    they model a corrupted producer, and must be caught downstream.
    """
    t0 = perf_counter()
    if chaos is not None:
        chaos.before_decide(_task_key(task), attempt)
        if isinstance(task.backend, PortfolioBackend):
            task.backend.chaos = chaos
            task.backend.chaos_key = _task_key(task)
    deadline = Deadline.after(task_timeout)
    stop = deadline.as_stop_check() if deadline is not None else None
    task.run_instance.certify = certify != "off"
    pp = task.prepass
    if pp is not None and pp.decided is not None:
        result = pp.decided
    else:
        try:
            result = task.backend.run_resilient(task.run_instance, stop)
        except Cancelled as e:
            result = VerificationResult.make_unknown(
                method=task.backend.name,
                reason=timeout_reason,
                detail=f"{e.where} abandoned after {task_timeout:g}s",
                address=task.address,
            )
            return result, perf_counter() - t0
        if pp is not None and not result.unknown:
            result = pp.finish(result)
    if certify != "off" and not result.unknown:
        cert = result.certificate
        if (
            cert is not None
            and cert.kind == "rup"
            and task.run_instance.execution is not task.instance.execution
        ):
            # The proof refutes the pre-pass *residual's* CNF; the
            # auditor re-derives the CNF from the original trace, so the
            # proof does not transfer.  Drop it and re-derive below.
            # (Cycle/infeasible certificates survive read elimination —
            # residual ops are original ops and writes are never
            # eliminated — so only RUP proofs pay this.)
            result.certificate = None
        if cert is not None and cert.kind == "order" and (
            task.instance.write_order is None
            or tuple(op.uid for op in task.instance.write_order)
            != tuple(cert.payload)
        ):
            # An order certificate refutes the instance *relative to a
            # supplied write-order*.  The pre-pass downgrade path runs
            # the write-order backend against an order it *derived*
            # (forced by unique values) — sound, but the auditor can
            # only re-check orders the instance itself supplies.  Drop
            # the certificate and re-refute the raw trace below.
            result.certificate = None
        t_cert = perf_counter()
        try:
            result = ensure_certificate(
                task.instance.execution, result, task.instance.problem, stop
            )
        except Cancelled as e:
            result = VerificationResult.make_unknown(
                method=result.method,
                reason=timeout_reason,
                detail=f"{e.where} abandoned while deriving a certificate",
                address=task.address,
            )
            return result, perf_counter() - t0
        result.stats["t_certify"] = (
            result.stats.get("t_certify", 0.0) + perf_counter() - t_cert
        )
    if chaos is not None and not result.unknown:
        result = tamper_result(chaos, _task_key(task), attempt, result)
    return result, perf_counter() - t0


def _effective_timeout(
    policy: ResiliencePolicy, run_deadline: Deadline | None
) -> tuple[float | None, str]:
    """The task deadline to ship to a worker right now, and the UNKNOWN
    reason to use if it expires: the run budget caps the per-task
    allowance, and when the budget is the binding constraint the
    outcome is UNKNOWN(budget), not UNKNOWN(timeout)."""
    if run_deadline is None:
        return policy.task_timeout, "timeout"
    remaining = run_deadline.remaining()
    if policy.task_timeout is None or remaining < policy.task_timeout:
        return remaining, "budget"
    return policy.task_timeout, "timeout"


def _unknown_outcome(
    task: PlannedTask, reason: str, detail: str = "",
    attempts: int = 1, crashes: int = 0, quarantined: bool = False,
) -> _Outcome:
    return _Outcome(
        result=VerificationResult.make_unknown(
            method=task.backend.name, reason=reason, detail=detail,
            address=task.address,
        ),
        cache_hit=False,
        seconds=0.0,
        attempts=attempts,
        crashes=crashes,
        quarantined=quarantined,
    )


def _backoff(policy: ResiliencePolicy, attempt: int,
             run_deadline: Deadline | None) -> None:
    """Exponential backoff before a crash retry, capped and clipped to
    the run budget (waiting must never blow the deadline by itself)."""
    delay = min(MAX_BACKOFF_S, policy.backoff_s * (2 ** attempt))
    if delay <= 0:
        return
    if run_deadline is not None:
        run_deadline.sleep(delay)
    else:
        time.sleep(delay)


def _canon(
    task: PlannedTask, cache: ResultCache | None
) -> CanonicalInstance | None:
    if cache is None:
        return None
    return canonicalize(
        task.instance.execution,
        task.instance.write_order,
        task.instance.problem,
        task.backend.name,
    )


def _finalize(
    task: PlannedTask,
    canon: CanonicalInstance | None,
    result: VerificationResult,
    cache: ResultCache | None,
    chaos: ChaosSpec | None = None,
    certify: str = "off",
) -> VerificationResult:
    # The trusted-checker gate: with certification enabled every
    # decided verdict is validated here — in the parent, against the
    # *original* execution, before it can reach the cache or the caller.
    # ``on`` makes a failure loud (producer or checker is wrong; the
    # run must not quietly pick a side); ``strict`` degrades to a sound
    # UNKNOWN(uncertified) so sweeps survive an uncertifiable verdict.
    if certify != "off" and not result.unknown:
        t_cert = perf_counter()
        check = validate_result(
            task.instance.execution, result, task.instance.problem,
            write_order=task.instance.write_order,
        )
        result.stats["t_certify"] = (
            result.stats.get("t_certify", 0.0) + perf_counter() - t_cert
        )
        result.stats["certified"] = bool(check)
        if not check:
            if certify == "strict":
                result = VerificationResult.make_unknown(
                    method=result.method,
                    reason="uncertified",
                    detail=check.reason,
                    address=task.address,
                )
            else:
                raise CertificationError(
                    f"task {_task_key(task)} failed certification: "
                    f"{check.reason}"
                )
    # UNKNOWN is not a verdict: caching it would replay resource
    # exhaustion as if it were a property of the instance.
    if cache is not None and canon is not None and not result.unknown:
        if chaos is not None:
            chaos.on_cache_io(_task_key(task), "store")
        cache.store(canon, result)
    result.address = task.address
    result.stats.setdefault("cache_hit", False)
    return result


def validated_hit(
    cache: ResultCache,
    canon: CanonicalInstance,
    instance: Instance,
    certify: str = "off",
) -> VerificationResult | None:
    """Look ``canon`` up in ``cache`` and serve the hit only if it
    passes on-hit validation against ``instance``; None is a miss."""
    hit = cache.lookup(canon)
    if hit is None:
        return None
    hit.address = instance.address
    # On-hit validation.  Witness hits are *always* re-replayed against
    # the current execution — the cached schedule was computed for an
    # isomorphic instance, and serving it unchecked would launder a
    # stale or corrupted entry into a verdict.  Refutation certificates
    # are re-checked whenever certification is enabled (their uids /
    # variable numberings may not survive the isomorphism).  Any
    # failure drops the entry and recomputes: a cache miss, never a
    # wrong answer.
    if hit.holds or certify != "off":
        check = validate_result(
            instance.execution, hit, instance.problem,
            write_order=instance.write_order,
        )
        if not check:
            cache.invalidate(canon)
            return None
        if certify != "off":
            hit.stats["certified"] = True
    return hit


def _cache_lookup(
    task: PlannedTask,
    cache: ResultCache | None,
    chaos: ChaosSpec | None,
    certify: str = "off",
) -> tuple[CanonicalInstance | None, VerificationResult | None]:
    canon = _canon(task, cache)
    if canon is None:
        return None, None
    if chaos is not None:
        chaos.on_cache_io(_task_key(task), "lookup")
    return canon, validated_hit(cache, canon, task.instance, certify)


def _run_task_resilient(
    task: PlannedTask,
    cache: ResultCache | None,
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    certify: str = "off",
) -> _Outcome:
    """Cache-checked, deadline-capped, crash-retried serial execution."""
    t0 = perf_counter()
    canon, hit = _cache_lookup(task, cache, policy.chaos, certify)
    if hit is not None:
        return _Outcome(hit, True, perf_counter() - t0)
    timeout, reason = _effective_timeout(policy, run_deadline)
    attempt = 0
    crashes = 0
    while True:
        try:
            result, _seconds = _decide_task(
                task, timeout, policy.chaos, attempt, reason, certify
            )
            break
        except RETRYABLE as e:
            crashes += 1
            if attempt >= policy.retries:
                return _unknown_outcome(
                    task, "crashed", f"gave up after {crashes} crashes: {e}",
                    attempts=attempt + 1, crashes=crashes, quarantined=True,
                )
            _backoff(policy, attempt, run_deadline)
            attempt += 1
    result = _finalize(task, canon, result, cache, policy.chaos, certify)
    return _Outcome(
        result, False, perf_counter() - t0,
        attempts=attempt + 1, crashes=crashes,
    )


def _quarantine(
    task: PlannedTask,
    cache: ResultCache | None,
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    attempt: int,
    crashes: int,
    certify: str = "off",
) -> _Outcome:
    """A task that exhausted its pool retries runs once in-process —
    a poisoned pickle or a worker-killing input cannot sink the sweep.
    If it *still* dies, it is reported UNKNOWN(crashed)."""
    t0 = perf_counter()
    timeout, reason = _effective_timeout(policy, run_deadline)
    try:
        result, _seconds = _decide_task(
            task, timeout, policy.chaos, attempt, reason, certify
        )
    except RETRYABLE as e:
        return _unknown_outcome(
            task, "crashed", f"gave up after {crashes + 1} crashes: {e}",
            attempts=attempt + 1, crashes=crashes + 1, quarantined=True,
        )
    canon = _canon(task, cache)
    result = _finalize(task, canon, result, cache, policy.chaos, certify)
    return _Outcome(
        result, False, perf_counter() - t0,
        attempts=attempt + 1, crashes=crashes, quarantined=True,
    )


def execute_plan(
    tasks: list[PlannedTask],
    jobs: int = 1,
    cache: ResultCache | None = None,
    early_exit: bool = True,
    problem: str = "vmc",
    pool: str = "thread",
    resilience: ResiliencePolicy | None = None,
    certify: str = "off",
) -> tuple[dict, EngineReport]:
    """Run a plan; returns ``(results_by_address, report)``.

    ``results_by_address`` only contains the tasks that actually ran
    (early exit may skip the tail of the plan; a run-budget expiry
    instead records UNKNOWN(budget) results, so partial coverage is
    visible rather than silent).

    ``certify`` is one of :data:`~repro.engine.certify.CERTIFY_MODES`:
    with ``"on"`` or ``"strict"`` every decided verdict must carry a
    certificate the trusted checker validates before the result is
    cached or returned.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if pool not in POOL_KINDS and pool != "auto":
        raise ValueError(
            f"unknown pool kind {pool!r}; choose from "
            f"{POOL_KINDS + ('auto',)}"
        )
    if certify not in CERTIFY_MODES:
        raise ValueError(
            f"unknown certify mode {certify!r}; choose from {CERTIFY_MODES}"
        )
    policy = resilience or NO_RESILIENCE
    pool = resolve_pool(pool, tasks, jobs)
    start = perf_counter()
    report = EngineReport(
        problem=problem, jobs=jobs, pool=pool, planned=len(tasks)
    )
    evictions_before = cache.stats.evictions if cache is not None else 0
    store_reval_before = (
        cache.stats.store_revalidation_failures if cache is not None else 0
    )
    outcomes, report.cancelled = run_tasks(
        tasks, jobs, cache, policy, Deadline.after(policy.timeout),
        certify, pool, early_exit,
    )
    for task in tasks:
        got = outcomes.get(task.order)
        if got is not None and got.error is not None:
            raise got.error

    results: dict = {}
    violated = False
    certify_s = 0.0
    decide_s = 0.0
    for task in tasks:
        got = outcomes.get(task.order)
        if got is None:
            report.record(
                TaskStats(
                    address=task.address,
                    backend=task.backend.name,
                    method=task.backend.name,
                    estimate=task.estimate,
                    skipped=True,
                )
            )
            continue
        result = got.result
        violated = violated or result.violated
        results[task.address] = result
        certify_s += result.stats.pop("t_certify", 0.0)
        decide_s += got.seconds
        report.crashes += got.crashes
        if result.unknown and result.unknown_reason in ("timeout", "budget"):
            report.deadline_expired += 1
        if result.stats.get("certified"):
            report.certified += 1
        elif result.unknown and result.unknown_reason == "uncertified":
            report.uncertified += 1
        decided_by_prepass = (
            task.prepass is not None
            and task.prepass.decided is not None
            and not result.unknown
        )
        report.record(
            TaskStats(
                address=task.address,
                backend="prepass" if decided_by_prepass else task.backend.name,
                method=result.method,
                estimate=task.estimate,
                wall_time=got.seconds,
                cache_hit=got.cache_hit,
                store_hit=bool(result.stats.get("store_hit")),
                holds=None if result.unknown else result.holds,
                unknown=result.unknown,
                attempts=got.attempts,
                quarantined=got.quarantined,
                detail={
                    k: v
                    for k, v in result.stats.items()
                    if k not in ("cache_hit", "store_hit")
                },
            )
        )
    report.early_exit = early_exit and violated and len(outcomes) < len(tasks)
    _aggregate_portfolio(tasks, outcomes, report)
    prepassed = [t.prepass for t in tasks if t.prepass is not None]
    if prepassed:
        report.prepass = {
            "tasks": len(prepassed),
            "decided": sum(1 for p in prepassed if p.decided is not None),
            "downgraded": sum(1 for p in prepassed if p.downgraded),
            "edges_inferred": sum(p.edges_inferred for p in prepassed),
            "ops_eliminated": sum(p.ops_eliminated for p in prepassed),
            "ops_before": sum(p.ops_before for p in prepassed),
            "ops_after": sum(p.ops_after for p in prepassed),
        }
    if cache is not None:
        report.cache_evictions = cache.stats.evictions - evictions_before
        report.store_revalidation_failures = (
            cache.stats.store_revalidation_failures - store_reval_before
        )
        # fsync-on-batch: one durability point per engine run, not per
        # entry (a no-op without a store tier).
        cache.flush_store()
    report.stage_times["search"] = max(0.0, decide_s - certify_s)
    if certify != "off":
        report.stage_times["certify"] = certify_s
    from repro.core import kernels

    report.kernel = kernels.backend().name
    report.wall_time = perf_counter() - start
    return results, report


def run_tasks(
    tasks: list[PlannedTask],
    jobs: int,
    cache: ResultCache | None,
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    certify: str = "off",
    pool: str = "thread",
    early_exit: bool = True,
) -> tuple[dict[int, _Outcome], int]:
    """The one serial/pooled runner behind every engine run.

    Decides ``tasks`` (serially in plan order for ``jobs=1``, else on a
    ``pool`` of ``jobs`` workers) under ``policy`` and the shared
    ``run_deadline``.  Returns ``(outcomes, cancelled)``: outcomes keyed
    by ``task.order`` — tasks skipped by an early exit are absent — and
    the count of tasks the early exit prevented from running.  An
    engine exception is kept in its task's outcome, never raised here.
    """
    outcomes: dict[int, _Outcome] = {}
    if jobs > 1 and len(tasks) > 1:
        cancelled = _run_pooled(
            tasks, jobs, cache, early_exit, pool, outcomes,
            policy, run_deadline, certify,
        )
        return outcomes, cancelled
    for task in tasks:
        if run_deadline is not None and run_deadline.expired():
            outcomes[task.order] = _unknown_outcome(
                task, "budget",
                f"run budget {policy.timeout:g}s exhausted before "
                f"the task started",
            )
            continue
        outcomes[task.order] = _captured(
            _run_task_resilient, task, cache, policy, run_deadline, certify
        )
        if early_exit and outcomes[task.order].halts:
            break
    return outcomes, 0


def _aggregate_portfolio(
    tasks: list[PlannedTask],
    outcomes: dict[int, _Outcome],
    report: EngineReport,
) -> None:
    """Fold per-task race records into the report's portfolio summary.

    Cache hits are excluded — a hit replays a verdict, not a race."""
    races = 0
    wins: dict[str, int] = {}
    cancelled = 0
    budget_exceeded = 0
    for task in tasks:
        got = outcomes.get(task.order)
        if got is None:
            continue
        record = got.result.stats.get("portfolio")
        if got.cache_hit or not isinstance(record, dict):
            continue
        races += 1
        winner = record.get("winner", "?")
        wins[winner] = wins.get(winner, 0) + 1
        cancelled += record.get("cancelled", 0)
        budget_exceeded += record.get("budget_exceeded", 0)
    if races:
        report.portfolio = {
            "races": races,
            "wins": wins,
            "cancelled_legs": cancelled,
            "budget_exceeded": budget_exceeded,
        }


class _LostResult(RuntimeError):
    """Chaos dropped a completed result on the pool boundary; the task
    must be retried exactly as if the worker had died."""


def _run_pooled(
    tasks: list[PlannedTask],
    jobs: int,
    cache: ResultCache | None,
    early_exit: bool,
    pool: str,
    outcomes: dict[int, _Outcome],
    policy: ResiliencePolicy,
    run_deadline: Deadline | None,
    certify: str = "off",
) -> int:
    """Windowed pool execution shared by both pool kinds; returns the
    number of tasks an early exit prevented from running.

    Cache lookups, cache stores, and pre-pass-decided tasks are handled
    in the parent — the cache's lock does not pickle, and a decided
    task needs no worker anyway.  Only undecided work crosses the pool
    boundary.

    Failure handling: a retryable failure (dead worker, injected crash,
    lost result) requeues the victim with backoff up to
    ``policy.retries`` attempts, then quarantines it in-process; a
    broken pool is rebuilt once per break with every in-flight task
    requeued (the victim cannot be told apart from its innocent
    neighbours).  ``KeyboardInterrupt`` cancels all futures, drains the
    pool, and re-raises — no orphaned workers.
    """
    executor_cls = (
        concurrent.futures.ProcessPoolExecutor
        if pool == "process"
        else concurrent.futures.ThreadPoolExecutor
    )
    max_workers = min(jobs, len(tasks))
    window = WINDOW_PER_JOB * jobs
    chaos = policy.chaos
    # (task, attempt, crashes) triples; retries re-enter at the front.
    pending: deque[tuple[PlannedTask, int, int]] = deque(
        (t, 0, 0) for t in tasks
    )
    in_flight: dict[
        concurrent.futures.Future,
        tuple[PlannedTask, CanonicalInstance | None, int, int],
    ] = {}
    cancelled = 0
    halted = False
    budget_out = False

    def decided_in_parent(task, canon, attempt) -> _Outcome:
        # Decided in the parent, so chaos must not ride into
        # _decide_task (an injected crash would surface here as a hard
        # error, not a retryable worker death); the semantic faults
        # still apply, explicitly.
        result, seconds = _decide_task(task, certify=certify)
        if chaos is not None and not result.unknown:
            result = tamper_result(chaos, _task_key(task), attempt, result)
        result = _finalize(task, canon, result, cache, chaos, certify)
        return _Outcome(result, False, seconds)

    def harvested(task, canon, fut, attempt, crashes) -> _Outcome:
        result, seconds = fut.result()
        result = _finalize(task, canon, result, cache, chaos, certify)
        return _Outcome(
            result, False, seconds, attempts=attempt + 1, crashes=crashes
        )

    executor = executor_cls(max_workers=max_workers)
    try:
        while (pending or in_flight) and not halted:
            if run_deadline is not None and run_deadline.expired():
                budget_out = True
                break
            while pending and len(in_flight) < window and not halted:
                task, attempt, crashes = pending.popleft()
                canon, hit = _cache_lookup(task, cache, chaos, certify)
                if hit is not None:
                    outcomes[task.order] = _Outcome(hit, True, 0.0)
                    halted = early_exit and hit.violated
                    continue
                if task.prepass is not None and task.prepass.decided is not None:
                    outcomes[task.order] = _captured(
                        decided_in_parent, task, canon, attempt
                    )
                    halted = early_exit and outcomes[task.order].halts
                    continue
                timeout, reason = _effective_timeout(policy, run_deadline)
                fut = executor.submit(
                    _decide_task, task, timeout, chaos, attempt, reason,
                    certify,
                )
                in_flight[fut] = (task, canon, attempt, crashes)
            if halted or not in_flight:
                continue
            wait_s = (
                None if run_deadline is None
                else max(0.01, min(0.25, run_deadline.remaining()))
            )
            done, _running = concurrent.futures.wait(
                in_flight,
                timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for fut in done:
                if fut not in in_flight:
                    continue  # requeued by a pool rebuild above
                task, canon, attempt, crashes = in_flight.pop(fut)
                e = fut.exception()
                if e is None and chaos is not None and chaos.loses_result(
                    _task_key(task), attempt
                ):
                    e = _LostResult(_task_key(task))
                if not isinstance(e, RETRYABLE + (_LostResult,)):
                    outcomes[task.order] = _captured(
                        harvested, task, canon, fut, attempt, crashes
                    )
                    halted = halted or (
                        early_exit and outcomes[task.order].halts
                    )
                    continue
                crashes += 1
                if isinstance(e, concurrent.futures.BrokenExecutor):
                    # The pool is dead: rebuild it and requeue every
                    # in-flight task — their futures are broken too.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = executor_cls(max_workers=max_workers)
                    for other in list(in_flight):
                        t2, _c2, a2, cr2 = in_flight.pop(other)
                        pending.appendleft((t2, a2 + 1, cr2 + 1))
                if attempt >= policy.retries:
                    outcomes[task.order] = _captured(
                        _quarantine, task, cache, policy, run_deadline,
                        attempt + 1, crashes, certify,
                    )
                    halted = halted or (
                        early_exit and outcomes[task.order].halts
                    )
                else:
                    _backoff(policy, attempt, run_deadline)
                    pending.appendleft((task, attempt + 1, crashes))
        if halted or budget_out:
            # Cancel whatever has not started; count never-submitted
            # tasks too — both are work the exit avoided.
            for fut in list(in_flight):
                if fut.cancel():
                    cancelled += 1
                    del in_flight[fut]
            if halted:
                cancelled += len(pending)
            # In-flight tasks finish during pool shutdown (their worker-
            # side deadlines are capped by the run budget, so this is
            # bounded); harvest them so results are not discarded.
            for fut, (task, canon, attempt, crashes) in list(in_flight.items()):
                try:
                    e = fut.exception()
                except concurrent.futures.CancelledError:
                    continue
                if isinstance(e, RETRYABLE):
                    outcomes[task.order] = _unknown_outcome(
                        task, "crashed", "worker died during wind-down",
                        attempts=attempt + 1, crashes=crashes + 1,
                    )
                    continue
                outcomes[task.order] = _captured(
                    harvested, task, canon, fut, attempt, crashes
                )
            if budget_out:
                # Tasks that never ran (queued or cancelled on the pool)
                # are UNKNOWN(budget), not silently skipped: partial
                # coverage must be visible.
                for task in tasks:
                    if task.order not in outcomes:
                        outcomes[task.order] = _unknown_outcome(
                            task, "budget",
                            f"run budget {policy.timeout:g}s exhausted "
                            f"before the task started",
                        )
    except KeyboardInterrupt:
        # Ctrl-C must not orphan workers: cancel everything that has
        # not started, drain what has, then re-raise to the caller.
        executor.shutdown(wait=True, cancel_futures=True)
        raise
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return cancelled
