#!/usr/bin/env python3
"""End-to-end benchmark of the coherence-verification stack.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py``):
``campaign``, ``trace-batch``, ``daemon`` and ``monitor``.  The seed
makes every input; the program only sees the generated inputs.

With ``--trace 0`` the workload runs for ``--seconds`` with no spans and
the end-to-end metrics are reported.  With ``--trace 1`` it runs half
as long untraced, then repeats the same inputs in a traced pass that
opens a span around every call into a layer, and the per-layer metrics
are reported (self times, counters, the unattributed remainder and the
tracing overhead).  Set-up runs three times; ``setup_s`` is the median.

The timed part runs in rounds that make the same short calls on the
same inputs.  ``items_per_s`` is the work of one round over the sum of
each call's median time, and the latency percentiles are taken over
every call of every round.  The host this was tuned on is shared, and
its speed moved by 1.3-1.9x for tens of seconds at a time, which no
length of run averaged out.  So after each call the benchmark times a
fixed piece of pure-Python work (``workloads.probe``) and scales the
call's time to the probe's reference speed; each set-up is scaled the
same way, by probes taken either side of it.  A call whose time is
spent waiting on a wall-clock budget would not scale with the host, so
``trace-batch`` takes no probes and reports wall-clock time.  The detail line gives
the unscaled figures and the probe's median beside the scaled ones.

Every verdict is checked against the answer its generator knows
(``corpus.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it carries details (environment, sample counts,
outcome tallies).  Per-item outcomes, every call's samples and probes,
and the spans of a traced pass are written under ``.e2ebench_out/``.
The exit code is 0 when every decided verdict matched its known
answer, 1 when one did not, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
#: Probes taken before and after each set-up.
SETUP_PROBES = 5
#: Environment variables that select a different program.
PINNED_ENV = ("REPRO_KERNEL", "REPRO_CHAOS")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "decided_share": "fraction",
    "peak_rss_mb": "MB",
}

SEARCH_BACKENDS = ("write-order", "single-op", "readmap", "exact",
                   "portfolio", "sat", "other")
PER_LAYER = {
    **{f"memsys.{sub}.{m}": u
       for sub in ("bus", "directory")
       for m, u in (("run_s", "s"), ("steps", "count"),
                    ("us_per_step", "us"), ("control_us_per_step", "us"),
                    ("faulted_us_per_step", "us"))},
    "memsys.directory.messages": "count",
    "memsys.oracle.s": "s",
    "core.serialize.load_s": "s",
    "core.serialize.mb_per_s": "MB/s",
    "core.serialize_bin.load_s": "s",
    "core.serialize_bin.mb_per_s": "MB/s",
    "core.serialize_bin.frame_decode_s": "s",
    "core.columnar.build_s": "s",
    "engine.batch.plan_s": "s",
    "engine.batch.run_s": "s",
    "engine.batch.verify_many_s": "s",
    "engine.batch.dedup_ratio": "ratio",
    "engine.cache.hit_ratio": "ratio",
    "engine.prepass.s": "s",
    "engine.prepass.decided": "count",
    "engine.prepass.downgraded": "count",
    **{f"engine.search.{b}.s": "s" for b in SEARCH_BACKENDS},
    "engine.search.unknown": "count",
    "engine.certify.holds_s": "s",
    "engine.certify.violated_s": "s",
    "engine.certify.sat_fallbacks": "count",
    "engine.certify.uncertified": "count",
    "engine.store.put_s": "s",
    "engine.store.records": "count",
    "engine.streaming.feed_s": "s",
    "engine.streaming.peak_window": "ops",
    "engine.streaming.evicted": "ops",
    "engine.streaming.detect_lag_ops": "ops",
    "service.ping_rtt_ms": "ms",
    "service.request_s": "s",
    "service.overhead_ms": "ms",
    "service.retry_after": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile (numpy's default): with few
    samples, as campaign and trace-batch have, p50 is their median."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    from repro.core import kernels

    return {
        "kernel": kernels.backend().name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark (VmHWM) from its current
    RSS, so the peak read afterwards covers only what follows."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def children_peak_rss_mb() -> float:
    """The largest peak RSS of any child that has ended."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def own_peak_rss_mb() -> float:
    """This process's peak RSS since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  extra_s: float) -> dict[str, float]:
    """The per-layer metrics from a traced pass.  ``*_s`` values are
    span self times; ``extra_s`` is traced work the untraced run does
    not do (the daemon's in-process comparison)."""
    own = tracer.self_times()
    c = tracer.counters
    out = {name: 0.0 for name in PER_LAYER}

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    for sub in ("bus", "directory"):
        run_s = own.get(f"memsys.{sub}.run", 0.0)
        steps = c.get(f"memsys.{sub}.steps", 0)
        out[f"memsys.{sub}.run_s"] = run_s
        out[f"memsys.{sub}.steps"] = steps
        out[f"memsys.{sub}.us_per_step"] = ratio(run_s, steps) * 1e6
        for split in ("control", "faulted"):
            out[f"memsys.{sub}.{split}_us_per_step"] = ratio(
                c.get(f"memsys.{sub}.{split}_s", 0.0),
                c.get(f"memsys.{sub}.{split}_steps", 0)) * 1e6
    out["memsys.directory.messages"] = c.get("memsys.directory.messages", 0)
    out["memsys.oracle.s"] = own.get("memsys.oracle", 0.0)
    for layer in ("core.serialize", "core.serialize_bin"):
        load = own.get(f"{layer}.load", 0.0)
        out[f"{layer}.load_s"] = load
        out[f"{layer}.mb_per_s"] = ratio(c.get(f"{layer}.bytes", 0) / 1e6, load)
    for span in ("core.serialize_bin.frame_decode", "core.columnar.build",
                 "engine.batch.plan", "engine.batch.run",
                 "engine.batch.verify_many", "engine.store.put",
                 "engine.streaming.feed"):
        out[f"{span}_s"] = own.get(span, 0.0)
    out["engine.batch.dedup_ratio"] = ratio(c.get("engine.batch.tasks", 0),
                                            c.get("engine.batch.uniques", 0))
    out["engine.prepass.s"] = own.get("engine.prepass", 0.0)
    for b in SEARCH_BACKENDS:
        out[f"engine.search.{b}.s"] = own.get(f"engine.search.{b}", 0.0)
    out["engine.certify.holds_s"] = own.get("engine.certify.holds", 0.0)
    out["engine.certify.violated_s"] = own.get("engine.certify.violated", 0.0)
    for name in ("engine.cache.hit_ratio", "engine.prepass.decided",
                 "engine.prepass.downgraded", "engine.search.unknown",
                 "engine.certify.sat_fallbacks", "engine.certify.uncertified",
                 "engine.store.records", "engine.streaming.peak_window",
                 "engine.streaming.evicted", "engine.streaming.detect_lag_ops",
                 "service.overhead_ms", "service.retry_after"):
        out[name] = c.get(name, 0)
    pings = tracer.durations("service.ping")
    out["service.ping_rtt_ms"] = statistics.median(pings) * 1e3 if pings else 0.0
    out["service.request_s"] = own.get("service.request", 0.0)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - extra_s - untraced_wall
    out["trace.unattributed_s"] = traced_wall - tracer.top_level_s()
    out["trace.spans"] = len(tracer.spans)
    return out


def call_metrics(samples: list[list[float]], work: list[int]) -> dict:
    """Throughput over each call's median time, and latency percentiles
    over every sample."""
    typical = [statistics.median(s) for s in samples]
    latencies_ms = [t * 1e3 for calls in samples for t in calls]
    return {
        "items_per_s": sum(work) / sum(typical),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p99_ms": percentile(latencies_ms, 99),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (seconds instead of minutes)")
    ap.add_argument("--flip-one", action="store_true",
                    help="flip one decided verdict before checking, to "
                    "show the known-answer check fails the run")
    args = ap.parse_args(argv)

    pinned = [k for k in PINNED_ENV if os.environ.get(k)]
    if pinned:
        print(f"error: unset {', '.join(pinned)}: they select a different "
              f"program than the one benchmarked", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import PROBE_REFERENCE_S, WORKLOADS, Context, probe

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = dict(wl.sizes)
    if args.tiny:
        sizes.update(wl.tiny)
    jobs = max(1, min(2, os.cpu_count() or 1))
    work = ROOT / ".e2ebench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".e2ebench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}"

    setup_s: list[float] = []  # as measured
    setup_probes: list[float] = []
    state = None
    try:
        for i in range(SETUP_REPEATS):
            wd = work / f"setup{i}"
            wd.mkdir(parents=True)
            ctx = Context(seed=args.seed, root=ROOT, workdir=wd, jobs=jobs,
                          sizes=sizes)
            # Set-up is scaled to the reference host speed like the
            # timed calls, by probes taken either side of it.
            probes = [probe() for _ in range(SETUP_PROBES)]
            t0 = perf_counter()
            st = wl.setup(ctx)
            setup_s.append(perf_counter() - t0)
            probes += [probe() for _ in range(SETUP_PROBES)]
            setup_probes.append(statistics.median(probes))
            if i < SETUP_REPEATS - 1:
                wl.teardown(st)
                shutil.rmtree(wd, ignore_errors=True)
            else:
                state = st
        if args.trace:
            m = wl.measure(state, args.seconds / 2, True)
            tracer = Tracer()
            t0 = perf_counter()
            wl.traced(state, tracer, m)
            baseline = tracer.counters.get("trace.baseline_s")
            traced_wall = perf_counter() - t0 - (baseline or 0.0)
        else:
            # The peak covers the timed part only, not set-up.
            reset_peak_rss()
            m = wl.measure(state, args.seconds)
            rss = own_peak_rss_mb()
    finally:
        if state is not None:
            wl.teardown(state)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".e2ebench_work").rmdir()
        except OSError:
            pass
    if wl.out_of_process:
        # The daemon's peak, read once it has ended.
        rss = children_peak_rss_mb()

    attempts = [o for o in m.outcomes if o.kind != "offline"]
    if args.flip_one:
        for o in attempts:
            if o.decided and o.expected is not None:
                o.verdict = "HOLDS" if o.verdict == "VIOLATED" else "VIOLATED"
                break
    wrong = sum(o.wrong for o in m.outcomes)
    failed = wrong + sum(o.verdict in ("error", "refused") for o in attempts)
    decided = sum(o.decided for o in attempts)
    correct = wrong == 0 and failed == 0 and len(attempts) > 0

    probes = [p for row in m.probes for p in row if p is not None]
    if args.trace:
        # The untraced rounds also took the probes; the traced pass does not.
        untraced = (baseline if baseline is not None
                    else sum(m.round_s) - sum(probes))
        extra = sum(tracer.durations("service.inprocess"))
        metrics = layer_metrics(tracer, traced_wall, untraced, extra)
        tracer.dump(f"{stem}-spans.ndjson")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(
                t * PROBE_REFERENCE_S / p
                for t, p in zip(setup_s, setup_probes)),
            **call_metrics(m.scaled_s(), m.work),
            "decided_share": decided / len(attempts) if attempts else 0.0,
            "peak_rss_mb": rss,
        }
        units = END_TO_END

    tally: dict[str, int] = {}
    for o in attempts:
        key = f"{o.kind}:{o.expected}->{o.verdict}"
        tally[key] = tally.get(key, 0) + 1
    detail = {
        "workload": wl.name,
        "item": wl.item,
        "latency_sample": wl.latency,
        "seed": args.seed,
        "sizes": sizes,
        "jobs": jobs,
        "environment": environment(),
        "setup_unscaled_s": setup_s,
        "setup_probe_ms": [p * 1e3 for p in setup_probes],
        "rounds": len(m.round_s),
        "round_s": m.round_s,
        "timed_calls_per_round": len(m.samples),
        "latency_samples": sum(map(len, m.samples)),
        "items_per_round": sum(m.work),
        "probe_median_ms": (statistics.median(probes) * 1e3 if probes
                            else None),
        "unscaled": call_metrics(m.samples, m.work) if m.samples else None,
        "wall_s": m.wall_s,
        "attempted": len(attempts),
        "decided": decided,
        "wrong_verdicts": wrong,
        "outcomes": tally,
    }
    with open(f"{stem}-calls.json", "w", encoding="utf-8") as fh:
        json.dump({"samples_s": m.samples, "work": m.work,
                   "probes_s": m.probes}, fh)
    with open(f"{stem}-outcomes.ndjson", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"detail": detail}) + "\n")
        for o in m.outcomes:
            fh.write(json.dumps(asdict(o)) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
