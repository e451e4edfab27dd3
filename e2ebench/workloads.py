"""The benchmark's workloads, declared as data.

Each :class:`Workload` names its generator sizes, a ``setup`` that
builds the seeded inputs, a ``measure`` that makes the timed calls
into the public API for a given number of seconds, and a ``traced``
pass that repeats the same inputs while opening a span around every
call into a layer.  :mod:`run` drives them all the same way.

The load comes from one process.  The campaign and the batch verify
in it (``VERIFY_JOBS``); the daemon runs ``jobs = min(2, nproc)``
worker threads.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import corpus
from corpus import HOLDS, VIOLATED
from spans import Tracer

#: Verdict spellings of the public API -> the benchmark's.
VERDICTS = {"holds": HOLDS, "VIOLATED": VIOLATED, "UNKNOWN": "UNKNOWN"}


@dataclass
class Outcome:
    """One attempted item and what came back."""

    label: str
    kind: str
    expected: str | None
    verdict: str  # HOLDS | VIOLATED | UNKNOWN | error | refused
    certified: bool
    reason: str = ""

    @property
    def decided(self) -> bool:
        return self.verdict in (HOLDS, VIOLATED) and self.certified

    @property
    def wrong(self) -> bool:
        return self.decided and self.expected not in (None, self.verdict)


@dataclass
class Measurement:
    """Every round makes the same timed calls on the same inputs, so
    call ``i`` of one round does the same work as call ``i`` of any
    other.  What one call is depends on the workload (see
    ``Workload.latency``)."""

    outcomes: list[Outcome] = field(default_factory=list)
    #: ``samples[i]``: the seconds call ``i`` took, one per round.
    samples: list[list[float]] = field(default_factory=list)
    #: ``work[i]``: the throughput units (runs, files, requests, ops)
    #: call ``i`` completes.
    work: list[int] = field(default_factory=list)
    #: ``probes[i]``: the :func:`probe` taken right after call ``i``,
    #: one per round; ``None`` where the workload takes none.
    probes: list[list[float | None]] = field(default_factory=list)
    wall_s: float = 0.0
    #: Wall time of each round.
    round_s: list[float] = field(default_factory=list)

    def scaled_s(self) -> list[list[float]]:
        """``samples`` at the reference host speed: each sample times
        ``PROBE_REFERENCE_S`` over the median of the probes its round
        took within ``SCALE_WINDOW`` calls of it.  Samples without
        probes are returned as measured."""
        n = len(self.samples)
        out = []
        for i, samples in enumerate(self.samples):
            lo, hi = max(0, i - SCALE_WINDOW), min(n, i + SCALE_WINDOW + 1)
            row = []
            for r, dt in enumerate(samples):
                near = [self.probes[j][r] for j in range(lo, hi)
                        if self.probes[j][r] is not None]
                row.append(dt * PROBE_REFERENCE_S / statistics.median(near)
                           if near else dt)
            out.append(row)
        return out


#: Entries of the table one :func:`probe` builds.
PROBE_ITEMS = 3000
#: About a probe's median time on the 2-vCPU Xeon VM the benchmark was
#: tuned on (1.2-1.6 ms by workload), where neighbours on the host moved
#: its speed by 1.3-1.9x for tens of seconds at a time.
PROBE_REFERENCE_S = 1.4e-3
#: Probes taken this many calls either side of a call, in the same
#: round, give the host's speed at that call.
SCALE_WINDOW = 5


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now: the host's
    speed.  The work is of the program's kind (build a dict of tuples
    and lists, walk it, sort its keys): on that host it tracked the
    workloads' slowdowns better than an arithmetic loop did (round-time
    spread 3.6% against 6.4% on campaign calls, 7% against 9% on
    monitor streams).  The collector is off for it, so it costs the
    same whatever the program has left on the heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ts = perf_counter()
        table = {}
        for i in range(PROBE_ITEMS):
            table[(i, i & 7)] = [i]
        total = 0
        for value in table.values():
            total += value[0]
        sorted(table, key=lambda key: -key[0])
        return perf_counter() - ts
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Context:
    seed: int
    root: Path  # checkout root
    workdir: Path  # scratch space inside the checkout
    jobs: int
    sizes: dict


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # the throughput unit
    latency: str  # what one latency sample times
    sizes: dict
    setup: Callable[[Context], Any]
    #: ``measure(state, seconds, baseline)``: ``baseline`` marks the
    #: untraced half of a traced run, which needs no latency-sample floor.
    measure: Callable[[Any, float, bool], Measurement]
    traced: Callable[[Any, Tracer, Measurement], None]
    #: Size overrides for the smoke tests (same code paths, seconds).
    tiny: dict = field(default_factory=dict)
    #: The verifying runs in a child process (its peak RSS is reported).
    out_of_process: bool = False
    teardown: Callable[[Any], None] = lambda state: None


def repro_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def cold_import(ctx: Context, modules: str) -> None:
    """What every CLI invocation pays first: a fresh interpreter
    importing the layers this workload uses."""
    subprocess.run(
        [sys.executable, "-c", f"import {modules}"],
        env=repro_env(ctx.root), check=True, cwd=ctx.root,
    )


def run_rounds(seconds: float,
               one_round: Callable[[int], list[tuple[float, int, Any]]],
               m: Measurement, min_rounds: int = 1,
               max_rounds: int | None = None) -> Measurement:
    """Call ``one_round(r)`` for r = 0, 1, ... while the next round is
    likely to end less than half a round after ``seconds``, and at
    least ``min_rounds`` times.  A round returns ``(seconds, work,
    probe)`` for each timed call it made, in the same order every
    round."""
    t0 = perf_counter()
    r = 0
    while True:
        ts = perf_counter()
        calls = one_round(r)
        m.round_s.append(perf_counter() - ts)
        if r == 0:
            m.samples = [[] for _ in calls]
            m.probes = [[] for _ in calls]
            m.work = [work for _dt, work, _probe in calls]
        elif len(calls) != len(m.samples):
            raise RuntimeError(f"round {r} made {len(calls)} timed calls, "
                               f"round 0 made {len(m.samples)}")
        for i, (dt, _work, p) in enumerate(calls):
            m.samples[i].append(dt)
            m.probes[i].append(p)
        r += 1
        elapsed = perf_counter() - t0
        typical = statistics.median(m.round_s)
        if r == max_rounds or (r >= min_rounds
                               and elapsed + typical / 2 > seconds):
            break
    m.wall_s = perf_counter() - t0
    return m


#: The campaign and the batch verify in the benchmark's process, as
#: `repro batch` does by default.  A pool forks on every call: on the
#: campaign's small plans that cost more than it saved (25 against 29
#: runs/s on a 2-vCPU VM) and doubled the run-to-run spread, and in the
#: batch it shards uniques by fingerprint, so round time depended on
#: where the budget-bound instances hashed.  In process, the verifying
#: also counts in the peak RSS that is reported.
VERIFY_JOBS = 1


# =====================================================================
# campaign: simulate -> oracle -> certified verify, in process
# =====================================================================
CAMPAIGN_SIZES = {
    "procs": 8, "ops": 40, "addrs": 3, "values": "small",
    "fault_rate": 0.15, "delay_models": ["fixed:1", "uniform:1:4"],
    "runs_per_cell": 1,
}


def campaign_setup(ctx: Context) -> dict:
    cold_import(ctx, "repro.memsys, repro.engine")
    return {"ctx": ctx}


def campaign_cells(ctx: Context) -> list[tuple[str, str, Any, int]]:
    """``(substrate, delay model, fault site, base seed)`` for every
    cell of the sweep, in ``run_campaign``'s own order."""
    from repro.memsys import supported_faults

    cells = []
    for substrate in corpus.SUBSTRATES:
        delays = (ctx.sizes["delay_models"] if substrate == "directory"
                  else ["atomic"])
        for delay in delays:
            for site in supported_faults(substrate):
                seed = ctx.seed * 1_000_003 + len(cells) * 101
                cells.append((substrate, delay, site, seed))
    return cells


def campaign_measure(state: dict, seconds: float,
                     baseline: bool = False) -> Measurement:
    """The sweep one ``run_campaign`` call per cell, so that each timed
    call is short and the same cells repeat every round."""
    from repro.engine import ResultCache
    from repro.memsys import run_campaign

    ctx: Context = state["ctx"]
    s = ctx.sizes
    cells = campaign_cells(ctx)
    m = Measurement()

    def one_round(r: int) -> list[tuple[float, int, Any]]:
        calls = []
        for substrate, delay, site, seed in cells:
            ts = perf_counter()
            report = run_campaign(
                sites=[site],
                substrates=[substrate],
                runs_per_cell=s["runs_per_cell"],
                num_processors=s["procs"],
                ops_per_processor=s["ops"],
                num_addresses=s["addrs"],
                values=s["values"],
                fault_rate=s["fault_rate"],
                delay_models=[delay] if delay != "atomic" else None,
                base_seed=seed,
                jobs=VERIFY_JOBS,
                cache=ResultCache(),
                certify="on",
            )
            calls.append((perf_counter() - ts, report.total_runs, probe()))
            m.outcomes.extend(campaign_outcomes(report, r))
        return calls

    return run_rounds(seconds, one_round, m)


def campaign_outcomes(report, r: int) -> list[Outcome]:
    """One outcome per run, from the report's per-cell contract counts
    (the oracle's verdict, with the machine's write-order, is the
    known answer)."""
    out: list[Outcome] = []
    for c in report.cells:
        label = f"r{r}/{c.key}"
        rows = (
            [(VIOLATED, VIOLATED, "visible fault detected")] * c.detected_visible
            + [(HOLDS, VIOLATED, "visible fault missed")] * c.missed_visible
            + [(VIOLATED, HOLDS, "false alarm")] * c.false_alarms
            + [("UNKNOWN", None, "unknown")] * c.unknown
            + [("error", None, "engine error")] * c.errors
        )
        holds = c.runs - len(rows)
        rows += [(HOLDS, HOLDS, "control or latent")] * holds
        for verdict, expected, why in rows:
            out.append(Outcome(label, "run", expected, verdict,
                               verdict in (HOLDS, VIOLATED), why))
    for failure in report.contract_failures:
        if "simulator bug" in failure:
            out.append(Outcome(failure[:80], "spontaneous", HOLDS,
                               VIOLATED, True, failure))
    return out


def campaign_traced(state: dict, tracer: Tracer, m: Measurement) -> None:
    """The campaign's pipeline, one public call at a time: each run's
    ``.run()``, then ``plan_batch`` and ``run_plan`` over its cell.
    ``.run()`` calls the oracle's ``classify_run`` itself, so
    for this pass that function is wrapped in a span of its own; the
    run's self time then excludes the oracle."""
    from repro.memsys import oracle

    classify_run = oracle.classify_run
    last = [0.0]  # duration of the latest classify_run call

    def spanned(*args, **kwargs):
        with tracer.span("memsys.oracle") as sp:
            try:
                return classify_run(*args, **kwargs)
            finally:
                last[0] = perf_counter() - sp[1]

    oracle.classify_run = spanned
    try:
        _campaign_traced(state, tracer, m, last)
    finally:
        oracle.classify_run = classify_run


def _campaign_traced(state: dict, tracer: Tracer, m: Measurement,
                     oracle_s: list[float]) -> None:
    from repro.engine import ResultCache
    from repro.engine.batch import plan_batch, run_plan
    from repro.memsys import FaultConfig, SystemConfig, random_shared_workload

    ctx: Context = state["ctx"]
    s = ctx.sizes
    for r in range(len(m.round_s)):
        for substrate, delay, site, base in campaign_cells(ctx):
            system_cls, protocol = corpus.SUBSTRATES[substrate]
            cell = f"r{r}/{substrate}/{site.value}/{delay}"
            runs = []
            for i in range(s["runs_per_cell"] + 1):
                control = i == s["runs_per_cell"]
                seed = base + i
                label = f"{cell}/{seed}"
                scripts, init = random_shared_workload(
                    num_processors=s["procs"],
                    ops_per_processor=s["ops"],
                    num_addresses=s["addrs"],
                    write_fraction=0.35,
                    values=s["values"],
                    seed=seed,
                )
                cfg = SystemConfig(
                    num_processors=s["procs"],
                    protocol=protocol, seed=seed,
                    num_homes=2,
                    delay_model="fixed:1" if delay == "atomic" else delay,
                )
                faults = FaultConfig.none() if control else FaultConfig(
                    kinds=frozenset([site]), rate=s["fault_rate"],
                    max_events=1, seed=seed,
                )
                system = system_cls(cfg, scripts, initial_memory=init,
                                    faults=faults)
                oracle_s[0] = 0.0
                with tracer.span(f"memsys.{substrate}.run", label) as sp:
                    run = system.run()
                dt = sp[2] - sp[1] - oracle_s[0]
                split = "control" if control else "faulted"
                tracer.count(f"memsys.{substrate}.steps", run.steps)
                tracer.count(f"memsys.{substrate}.{split}_s", dt)
                tracer.count(f"memsys.{substrate}.{split}_steps", run.steps)
                if substrate == "directory":
                    tracer.count("memsys.directory.messages",
                                 sum(run.bus_traffic.values()))
                runs.append((label, run))
            with tracer.span("engine.batch.plan", cell):
                plan = plan_batch(
                    [(label, run.execution, None) for label, run in runs],
                    write_orders=[run.write_orders for _label, run in runs],
                )
            tracer.count("engine.batch.tasks", len(plan.tasks))
            tracer.count("engine.batch.uniques", len(plan.uniques))
            with tracer.span("engine.batch.run", cell):
                run_plan(plan, jobs=VERIFY_JOBS, cache=ResultCache(),
                         certify="on")


# =====================================================================
# trace-batch: saved files -> run_batch, cold store, explicit budget
# =====================================================================
BATCH_SIZES = {
    # (procs, ops per proc, addresses)
    "large": [8, 500, 16],  # unique values
    # Small values, ambiguous: the exponential tier decides them, each
    # address well inside the budget.  Their decide times have a heavy
    # tail: at 8 x 40 x 3 it reaches any budget a run can afford, and
    # at 6 x 40 x 3 one seed's file took 3.7 s and another's went
    # UNKNOWN, so a run's time and outcomes hung on a few draws.  At
    # 5 x 40 x 3 forty seeds took 0.05 s per file on average and 0.30 s
    # at most; many of them keep the search a large share of a round.
    "small": [5, 40, 3],
    "medium": [8, 150, 1],  # small values: exhausts the budget today
    "large_clean": 2, "large_visible": 1, "small_items": 36,
    "medium_items": 1,
    # Well above the small traces' decide times (above); the large
    # faulted trace's certificate encoding grows until the
    # budget cuts it, so the budget also sets this workload's peak RSS.
    "task_budget_s": 2.0,
}


def batch_corpus(ctx: Context) -> list[corpus.Item]:
    from repro.memsys import FaultKind

    s = ctx.sizes
    base = ctx.seed * 10_007
    subs = ["bus", "directory"]
    items: list[corpus.Item] = []
    procs, ops, addrs = s["large"]
    for i in range(s["large_clean"]):
        sub = subs[i % 2]
        run = corpus.simulate(sub, procs, ops, addrs, "unique", base + i)
        items.append(corpus.sim_item(f"large-{sub}-clean-{i}", run))
    for i in range(s["large_visible"]):
        sub = subs[(ctx.seed + i) % 2]
        items.append(corpus.faulted_item(
            f"large-{sub}-visible-{i}", sub, procs, ops, addrs, "unique",
            base + 100 + i, FaultKind.CORRUPTED_VALUE, want=(VIOLATED,),
        ))
    procs, ops, addrs = s["small"]
    for i in range(s["small_items"]):
        sub = subs[i % 2]
        if (i // 2) % 2:
            # Faulted items with an order-free known answer only: the
            # others cannot be checked once the write-order is dropped.
            items.append(corpus.faulted_item(
                f"small-{sub}-{i}", sub, procs, ops, addrs, "small",
                base + 200 + i, FaultKind.CORRUPTED_VALUE,
            ))
        else:
            run = corpus.simulate(sub, procs, ops, addrs, "small",
                                  base + 200 + i)
            items.append(corpus.sim_item(f"small-{sub}-{i}", run))
    procs, ops, addrs = s["medium"]
    for i in range(s["medium_items"]):
        sub = subs[i % 2]
        run = corpus.simulate(sub, procs, ops, addrs, "small", base + 300 + i)
        items.append(corpus.sim_item(f"medium-{sub}-{i}", run))
    return items


def batch_setup(ctx: Context) -> dict:
    """Simulate the corpus and save it through the repo's own writers,
    alternating JSON and REPROBIN within every kind of trace."""
    from repro.core.serialize import save
    from repro.core.serialize_bin import save_bin

    cold_import(ctx, "repro.core.serialize, repro.core.serialize_bin, "
                     "repro.engine")
    items = batch_corpus(ctx)
    files = []
    seen: dict[str, int] = {}
    for item in items:
        group = item.label.split("-")[0]
        n = seen[group] = seen.get(group, -1) + 1
        if n % 2 == 0:
            path = ctx.workdir / f"{item.label}.json"
            save(item.execution, path)
        else:
            path = ctx.workdir / f"{item.label}.bin"
            save_bin(item.execution, path)
        files.append((str(path), item))
    return {"ctx": ctx, "files": files}


def _batch_policy(ctx: Context):
    from repro.engine import ResiliencePolicy

    return ResiliencePolicy(task_timeout=ctx.sizes["task_budget_s"])


def batch_measure(state: dict, seconds: float,
                  baseline: bool = False) -> Measurement:
    from repro.engine import ResultStore, run_batch

    ctx: Context = state["ctx"]
    files = state["files"]
    by_path = {path: item for path, item in files}
    m = Measurement()

    def one_round(r: int) -> list[tuple[float, int, Any]]:
        store_dir = ctx.workdir / f"store-{r}"
        store = ResultStore(str(store_dir))
        ts = perf_counter()
        report = run_batch(
            [path for path, _item in files],
            jobs=VERIFY_JOBS,
            store=store,
            certify="on",
            resilience=_batch_policy(ctx),
        )
        dt = perf_counter() - ts
        store.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        for row in report["files"]:
            item = by_path[row["path"]]
            verdict = VERDICTS.get(row["verdict"], row["verdict"])
            m.outcomes.append(Outcome(
                f"r{r}/{item.label}", item.kind, item.expected, verdict,
                row["certified"] > 0, (row["reason"] or "")[:120],
            ))
        # No probe: about half of the call waits out per-task budgets,
        # which take the same wall-clock time on a slow host or a fast one.
        return [(dt, len(files), None)]

    return run_rounds(seconds, one_round, m)


def _search_name(method: str) -> str:
    for name in ("write-order", "single-op", "readmap", "exact", "portfolio"):
        if name in method:
            return name
    return "sat" if method.startswith("sat") else "other"


def batch_traced(state: dict, tracer: Tracer, m: Measurement) -> None:
    """``run_batch`` taken apart: load each file, build its columnar
    view, plan and dedup the batch, then per unique instance the
    pre-pass, the uncertified search, certification and the store
    write, serially and under the same per-task budget."""
    from repro.core.columnar import columnar
    from repro.core.serialize import load_any
    from repro.core.serialize_bin import load_bin
    from repro.engine import (
        EXPONENTIAL_TIER, Instance, ResultCache, ResultStore,
        ensure_certificate, plan_batch, prepass_vmc, validate_result,
        verify_vmc_at, vmc_registry,
    )
    from repro.util.control import Cancelled
    from repro.util.deadline import Deadline

    ctx: Context = state["ctx"]
    budget = ctx.sizes["task_budget_s"]
    policy = _batch_policy(ctx)
    registry = vmc_registry()
    for r in range(len(m.round_s)):
        sources = []
        for path, item in state["files"]:
            label = f"r{r}/{item.label}"
            size = os.path.getsize(path)
            if path.endswith(".bin"):
                with tracer.span("core.serialize_bin.load", label):
                    ex = load_bin(path)
                tracer.count("core.serialize_bin.bytes", size)
            else:
                with tracer.span("core.serialize.load", label):
                    ex = load_any(path)
                tracer.count("core.serialize.bytes", size)
            with tracer.span("core.columnar.build", label):
                columnar(ex)
            sources.append((path, ex, None))
        store_dir = ctx.workdir / f"traced-store-{r}"
        store = ResultStore(str(store_dir))
        cache = ResultCache(store=store)
        with tracer.span("engine.batch.plan", f"r{r}"):
            plan = plan_batch(sources, store=store)
        tracer.count("engine.batch.tasks", len(plan.tasks))
        tracer.count("engine.batch.uniques", len(plan.uniques))
        for u, unique in enumerate(plan.uniques):
            label = f"r{r}/unique-{u}"
            instance = Instance(unique.sub, address=unique.address,
                                problem="vmc")
            info = None
            ts = perf_counter()
            # As the planner does: only exponential-tier tasks get the
            # pre-pass, and the search then runs on its residual.
            if registry.select(instance).tier >= EXPONENTIAL_TIER:
                with tracer.span("engine.prepass", label):
                    info = prepass_vmc(instance)
            if info is not None and info.downgraded:
                tracer.count("engine.prepass.downgraded")
            if info is not None and info.decided is not None:
                tracer.count("engine.prepass.decided")
                result = info.decided
            else:
                target = info.residual if info is not None else instance
                with tracer.span("engine.search", label) as sp:
                    result = verify_vmc_at(
                        target.execution, unique.address,
                        write_order=target.write_order, prepass=False,
                        resilience=policy, certify="off")
                    sp[0] = f"engine.search.{_search_name(result.method)}"
                if info is not None:
                    result = info.finish(result)
            if result.unknown:
                tracer.count("engine.search.unknown")
                continue
            left = max(0.0, budget - (perf_counter() - ts))
            stop = Deadline.after(left).as_stop_check()
            which = "holds" if result.holds else "violated"
            with tracer.span(f"engine.certify.{which}", label):
                try:
                    result = ensure_certificate(unique.sub, result,
                                                should_stop=stop)
                    ok = bool(validate_result(unique.sub, result))
                except Cancelled:
                    ok = False
            if "certificate_via" in result.stats:
                tracer.count("engine.certify.sat_fallbacks")
            if not ok:
                tracer.count("engine.certify.uncertified")
                continue
            with tracer.span("engine.store.put", label):
                cache.store(unique.canon, result)
                cache.flush_store()
        tracer.count("engine.store.records", len(store))
        store.close()
        shutil.rmtree(store_dir, ignore_errors=True)


# =====================================================================
# daemon: `repro serve` in its own process, closed-loop client
# =====================================================================
DAEMON_SIZES = {
    "procs": 4, "ops": 40, "addrs": 3, "values": "unique",
    "pool": 220, "visible_every": 10, "tenants": 2,
    # At least 1050 requests in a run, so that p99 has ten beyond it.
    "requests_per_round": 350, "min_rounds": 3, "retries": 20,
}


def daemon_pool(ctx: Context) -> list[tuple[bytes, corpus.Item]]:
    from repro.core.serialize_bin import dumps_bin
    from repro.memsys import FaultKind

    s = ctx.sizes
    base = ctx.seed * 100_003
    pool = []
    for i in range(s["pool"]):
        sub = ("bus", "directory")[i % 2]
        if i % s["visible_every"] == s["visible_every"] - 1:
            item = corpus.faulted_item(
                f"p{i}-{sub}-visible", sub, s["procs"], s["ops"], s["addrs"],
                s["values"], base + i, FaultKind.CORRUPTED_VALUE,
                want=(VIOLATED,),
            )
        else:
            run = corpus.simulate(sub, s["procs"], s["ops"], s["addrs"],
                                  s["values"], base + i)
            item = corpus.sim_item(f"p{i}-{sub}-clean", run)
        pool.append((dumps_bin(item.execution), item))
    return pool


def start_daemon(ctx: Context, sock: str, workers: int) -> subprocess.Popen:
    log = open(ctx.workdir / "daemon.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--workers", str(workers), "--certify", "on"],
        env=repro_env(ctx.root), cwd=os.getcwd(), stdout=log, stderr=log,
    )
    log.close()
    deadline = time.monotonic() + 60
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode}; "
                               f"see {ctx.workdir / 'daemon.log'}")
        try:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.connect(sock)
            s.close()
            return proc
        except OSError:
            if time.monotonic() > deadline:
                stop_daemon(proc)
                raise RuntimeError("daemon did not start listening in 60 s")
            time.sleep(0.01)


def stop_daemon(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def daemon_setup(ctx: Context) -> dict:
    pool = daemon_pool(ctx)
    sock = os.path.relpath(ctx.workdir / "serve.sock")
    proc = start_daemon(ctx, sock, ctx.jobs)
    return {"ctx": ctx, "pool": pool, "sock": sock, "proc": proc}


def daemon_teardown(state: dict) -> None:
    stop_daemon(state["proc"])


class _Plan:
    """One tenant's request sequence.  Of every five requests two send
    a payload the tenant has not had answered and three repeat one it
    has (cycling through them in order).  Tenants start at different
    points of the pool; a tenant that has had the whole pool answered
    continues under a fresh name, so the mix never drifts.  ``prefix``
    names the round: every round starts with empty tenant caches."""

    PATTERN = (False, True, True, False, True)  # repeat?

    def __init__(self, ctx: Context, tenant: int, n_pool: int,
                 prefix: str = ""):
        self.tenant = tenant
        self.n_pool = n_pool
        self.prefix = prefix
        self.start = tenant * n_pool // ctx.sizes["tenants"]
        self.generation = 0
        self.answered: list[int] = []
        self.k = 0
        self.cursor = 0

    @property
    def name(self) -> str:
        return f"{self.prefix}tenant{self.tenant}-{self.generation}"

    def next(self) -> tuple[int, bool]:
        if len(self.answered) == self.n_pool:
            self.generation += 1
            self.answered = []
        repeat = self.PATTERN[self.k % len(self.PATTERN)] and self.answered
        self.k += 1
        if not repeat:
            idx = (self.start + len(self.answered)) % self.n_pool
            self.answered.append(idx)
            return idx, False
        idx = self.answered[self.cursor % len(self.answered)]
        self.cursor += 1
        return idx, True


def _daemon_outcome(resp: dict, item: corpus.Item, label: str) -> Outcome:
    status = resp.get("status")
    if status == "ok":
        verdict = VERDICTS.get(resp.get("verdict"), str(resp.get("verdict")))
    elif status == "retry_after":
        verdict = "refused"
    else:
        verdict = "error"
    return Outcome(label, item.kind, item.expected, verdict,
                   bool(resp.get("certified")),
                   str(resp.get("reason") or resp.get("unknown_reason") or "")[:120])


def daemon_measure(state: dict, seconds: float,
                   baseline: bool = False) -> Measurement:
    """One closed-loop connection sends the tenants' requests in turn.
    With a connection per tenant, the client process and the daemon's
    two GIL-sharing workers compete for two cores, and the same seed
    swung +-30% from run to run; with one, +-3%.  Every round sends the
    same ``requests_per_round`` requests under fresh tenant names."""
    from repro.service import ServiceClient

    ctx: Context = state["ctx"]
    s = ctx.sizes
    pool = state["pool"]
    m = Measurement()
    answers: dict[int, set] = {}
    with ServiceClient(state["sock"], timeout=120) as c:

        def one_round(r: int) -> list[tuple[float, int, Any]]:
            plans = [_Plan(ctx, t, len(pool), f"r{r}-")
                     for t in range(s["tenants"])]
            calls = []
            for k in range(s["requests_per_round"]):
                plan = plans[k % len(plans)]
                idx, repeat = plan.next()
                data, item = pool[idx]
                ts = perf_counter()
                resp = c.verify(trace_bytes=data, tenant=plan.name,
                                retries=s["retries"])
                calls.append((perf_counter() - ts, 1, probe()))
                out = _daemon_outcome(
                    resp, item,
                    f"{plan.name}/{item.label}/{'repeat' if repeat else 'new'}")
                m.outcomes.append(out)
                if out.decided:
                    answers.setdefault(idx, set()).add(out.verdict)
            return calls

        # The daemon keeps at most 64 tenants (``repro serve
        # --max-tenants``); the traced pass needs two more.
        run_rounds(seconds, one_round, m,
                   min_rounds=1 if baseline else s["min_rounds"],
                   max_rounds=(64 - 2) // s["tenants"])

    m.outcomes.extend(_offline_agreement(pool, answers))
    return m


def _offline_agreement(pool, answers: dict[int, set]) -> list[Outcome]:
    """Daemon verdicts must equal the offline ``verify_many`` verdict on
    the same bytes; each disagreement is one wrong outcome."""
    from repro.core.serialize_bin import loads_bin
    from repro.engine import verify_many

    idxs = sorted(answers)
    offline = verify_many([loads_bin(pool[i][0]) for i in idxs])
    out = []
    for i, o in zip(idxs, offline):
        want = VERDICTS.get(o.verdict, o.verdict)
        for got in answers[i]:
            if got != want:
                out.append(Outcome(f"offline/{pool[i][1].label}", "offline",
                                   want, got, True,
                                   f"daemon {got}, offline {want}"))
    return out


def daemon_traced(state: dict, tracer: Tracer, m: Measurement) -> None:
    """One connection replays a prefix of tenant 0's plan with a span
    per request; new payloads are also verified in process (load,
    ``verify_many``) so the service's own overhead shows."""
    from repro.core.serialize_bin import loads_bin
    from repro.engine import ResultCache, verify_many
    from repro.service import ServiceClient

    ctx: Context = state["ctx"]
    pool = state["pool"]
    n = max(50, sum(map(len, m.samples)) // 4)
    plan = _Plan(ctx, 0, len(pool))
    sequence = [(*plan.next(), plan.name) for _ in range(n)]
    cache = ResultCache()  # the in-process twin of the tenant's cache
    overhead: list[float] = []
    with ServiceClient(state["sock"], timeout=120) as c:
        # The same requests untraced, on a fresh tenant: the baseline
        # for the tracing overhead, excluded from the traced wall time.
        ts = perf_counter()
        for idx, _repeat, name in sequence:
            c.request(c.verify_payload(trace_bytes=pool[idx][0],
                                       tenant=f"untraced-{name}"))
        tracer.count("trace.baseline_s", perf_counter() - ts)
        for _ in range(20):
            with tracer.span("service.ping"):
                c.ping()
        for k, (idx, repeat, name) in enumerate(sequence):
            data, item = pool[idx]
            label = f"q{k}/{item.label}"
            with tracer.span("service.request", label) as sp:
                c.request(c.verify_payload(trace_bytes=data,
                                           tenant=f"traced-{name}"))
            if repeat:
                continue
            request_s = sp[2] - sp[1]
            with tracer.span("service.inprocess", label) as ip:
                with tracer.span("core.serialize_bin.load", label):
                    ex = loads_bin(data)
                tracer.count("core.serialize_bin.bytes", len(data))
                with tracer.span("engine.batch.verify_many", label):
                    verify_many([ex], cache=cache, certify="on")
            overhead.append(request_s - (ip[2] - ip[1]))
        stats = c.stats()
    hits = lookups = 0
    for tenant, row in stats.get("tenants", {}).items():
        if tenant.startswith("traced-"):
            hits += row["cache"]["hits"]
            lookups += row["cache"]["hits"] + row["cache"]["misses"]
    tracer.count("engine.cache.hit_ratio", hits / lookups if lookups else 0.0)
    if overhead:
        tracer.counters["service.overhead_ms"] = (
            sorted(overhead)[len(overhead) // 2] * 1e3)
    # Every retry_after the daemon answered in this run, traced or not.
    tracer.count("service.retry_after", stats["requests"]["retry_after"])


# =====================================================================
# monitor: framed commit streams -> FrameReader -> StreamingVerifier
# =====================================================================
MONITOR_SIZES = {
    # (procs, addresses, ops).  Clean streams: ``narrow`` fits
    # DEFAULT_WINDOW at every address, ``wide`` runs with eviction
    # active.  ``stale`` streams carry one stale read at a seeded op
    # between 45% and 50% of the stream; they are short, and the band
    # is narrow, because the certified refutation's cost grows steeply
    # with the window retained at the violating address.  That cost
    # also varies by seed (0.09-0.28 s at 2k ops), so a run checks six
    # of them and their sum moves less from seed to seed.
    "narrow": [4, 4, 12_000],
    "wide": [16, 16, 120_000],
    "stale": [4, 4, 2_000],
    "stale_streams": 6,
    "read_bytes": 1 << 16,  # what `repro monitor` reads per call
}


def monitor_setup(ctx: Context) -> dict:
    cold_import(ctx, "repro.core.serialize_bin, repro.engine.streaming")
    s = ctx.sizes
    base = ctx.seed * 1009
    shapes = [("narrow", False), ("wide", False)]
    shapes += [("stale", True)] * s["stale_streams"]
    streams = []
    for k, (shape, stale) in enumerate(shapes):
        procs, addrs, ops = s[shape]
        label = f"{shape}-{k}"
        streams.append(corpus.make_stream(
            label, str(ctx.workdir / f"{label}.stm"), procs, addrs, ops,
            base + k, stale=stale,
        ))
    return {"ctx": ctx, "streams": streams}


def monitor_stream(st: corpus.Stream, read_bytes: int,
                   calls: list | None, tracer: Tracer | None = None,
                   label: str = "") -> tuple[Outcome, int, dict]:
    """Feed one framed stream through the ``repro monitor`` path,
    appending ``(seconds, ops)`` for each read, and for the closing
    ``finalize``, to ``calls``.  Returns the outcome, ops consumed and
    the verifier's snapshot."""
    from repro.core.serialize_bin import FrameReader
    from repro.engine import StreamingVerifier

    span = tracer.span if tracer is not None else (lambda *_: nullcontext())
    reader = FrameReader()
    verifier = None
    verdict = None
    with open(st.path, "rb") as fh:
        while verdict is None:
            data = fh.read(read_bytes)
            if not data:
                break
            ts = perf_counter()
            with span("core.serialize_bin.frame_decode", label):
                reader.feed(data)
                events = list(reader.events())
            if verifier is None and reader.n_procs is not None:
                verifier = StreamingVerifier(reader.n_procs, certify="on")
            before = verifier.stats.ops
            with span("engine.streaming.feed", label):
                for v in verifier.feed(events):
                    if v.kind != "heartbeat":
                        verdict = v
                        break
            if calls is not None:
                calls.append((perf_counter() - ts,
                              verifier.stats.ops - before, probe()))
    if verdict is None:
        ts = perf_counter()
        with span("engine.streaming.feed", label):
            verdict = verifier.finalize()
        if calls is not None:
            calls.append((perf_counter() - ts, 0, probe()))
    res = verdict.result
    got = "UNKNOWN" if res.unknown else HOLDS if res.holds else VIOLATED
    reason = f"{verdict.kind} at op {verdict.op_index}"
    expected = st.expected
    if got == VIOLATED and st.stale_at is not None and verdict.op_index < st.stale_at:
        expected = HOLDS  # a violation reported before the injected op
    out = Outcome(label or st.label, "stream", expected, got,
                  bool(res.stats.get("certified") or res.certificate), reason)
    snap = verifier.snapshot()
    snap["lag"] = (verdict.op_index - st.stale_at
                   if got == VIOLATED and st.stale_at is not None else 0)
    return out, verifier.stats.ops, snap


def monitor_measure(state: dict, seconds: float,
                    baseline: bool = False) -> Measurement:
    ctx: Context = state["ctx"]
    m = Measurement()

    def one_round(r: int) -> list[tuple[float, int, Any]]:
        calls: list[tuple[float, int, Any]] = []
        for st in state["streams"]:
            out, _ops, _snap = monitor_stream(st, ctx.sizes["read_bytes"],
                                              calls, label=f"r{r}/{st.label}")
            m.outcomes.append(out)
        return calls

    return run_rounds(seconds, one_round, m)


def monitor_traced(state: dict, tracer: Tracer, m: Measurement) -> None:
    ctx: Context = state["ctx"]
    for r in range(len(m.round_s)):
        for st in state["streams"]:
            label = f"r{r}/{st.label}"
            _out, ops, snap = monitor_stream(st, ctx.sizes["read_bytes"],
                                             None, tracer, label)
            tracer.count("engine.streaming.ops", ops)
            tracer.count("engine.streaming.evicted", snap["evicted"])
            tracer.peak("engine.streaming.peak_window", snap["peak_window"])
            tracer.peak("engine.streaming.detect_lag_ops", snap["lag"])


# =====================================================================
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="campaign",
            item="run",
            latency="one run_campaign call over one cell (its runs' "
                    "verdicts arrive together)",
            sizes=CAMPAIGN_SIZES,
            setup=campaign_setup,
            measure=campaign_measure,
            traced=campaign_traced,
            tiny={"procs": 2, "ops": 8, "addrs": 2, "runs_per_cell": 0},
        ),
        Workload(
            name="trace-batch",
            item="file",
            latency="one run_batch call (its files' verdicts arrive together)",
            sizes=BATCH_SIZES,
            setup=batch_setup,
            measure=batch_measure,
            traced=batch_traced,
            tiny={"large": [2, 60, 3], "small": [3, 8, 2], "medium": [3, 12, 1],
                  "large_clean": 1, "large_visible": 1, "small_items": 2,
                  "medium_items": 1, "task_budget_s": 1.0},
        ),
        Workload(
            name="daemon",
            item="request",
            latency="one verify request, first send to final answer",
            sizes=DAEMON_SIZES,
            setup=daemon_setup,
            measure=daemon_measure,
            traced=daemon_traced,
            tiny={"pool": 20, "requests_per_round": 10},
            out_of_process=True,
            teardown=daemon_teardown,
        ),
        Workload(
            name="monitor",
            item="committed op",
            latency="one 64 KiB read of a stream, decoded and checked, "
                    "or the closing finalize",
            sizes=MONITOR_SIZES,
            setup=monitor_setup,
            measure=monitor_measure,
            traced=monitor_traced,
            tiny={"narrow": [2, 2, 1500], "wide": [4, 4, 6000],
                  "stale": [2, 2, 400], "stale_streams": 1},
        ),
    )
}
