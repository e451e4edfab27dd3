"""Seeded benchmark inputs, each carrying the answer its generator knows.

Every item's expected verdict comes from how it was made, never from
the engine under test:

* a fault-free simulator run is coherent by construction  -> HOLDS;
* a faulted run whose injections the latency oracle proves latent
  (schedulable under the machine's own write-order)        -> HOLDS;
* an oracle-visible fault that made a read return a value no write
  produced (and that is not the initial value) is incoherent under
  every write-order                                        -> VIOLATED;
* an oracle-visible fault without such a read refutes only the
  machine's write-order.  Once the trace is saved without that order,
  the plain coherence answer is not known to the generator, so the
  item carries ``expected=None``: it still counts in ``decided_share``
  but can never be a wrong verdict;
* a generated commit stream with a stale read injected at op ``k``
  (the reader's own two earlier writes make it unschedulable)
                                                           -> VIOLATED at k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.types import INITIAL, Execution, OpKind, Operation
from repro.memsys import (
    DirectorySystem,
    FaultConfig,
    FaultKind,
    MultiprocessorSystem,
    SystemConfig,
    random_shared_workload,
)

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"

#: substrate -> (system class, protocol), as ``repro simulate`` builds them.
SUBSTRATES = {
    "bus": (MultiprocessorSystem, "MESI"),
    "directory": (DirectorySystem, "MSI"),
}


@dataclass
class Item:
    """One verification input plus its generator-side known answer."""

    label: str
    kind: str  # clean | latent | visible | visible-order-only
    expected: str | None
    execution: Execution


def reads_unwritten_value(execution: Execution) -> bool:
    """True when some read returned a value that no write to its
    address produced and that is not the address's initial value."""
    written: dict[Any, set] = {}
    reads = []
    for history in execution.histories:
        for op in history:
            if op.kind.writes:
                written.setdefault(op.addr, set()).add(op.value_written)
            if op.kind.reads and op.value_read is not None:
                reads.append(op)
    for op in reads:
        ok = written.get(op.addr, set())
        initial = execution.initial.get(op.addr, INITIAL)
        if op.value_read not in ok and op.value_read != initial:
            return True
    return False


def classify(run) -> tuple[str, str | None]:
    """(kind, expected verdict for the trace *without* its write-order)."""
    if not run.fault_events:
        return "clean", HOLDS
    if run.oracle.expected_verdict == HOLDS:
        return "latent", HOLDS
    if reads_unwritten_value(run.execution):
        return "visible", VIOLATED
    return "visible-order-only", None


def simulate(
    substrate: str,
    procs: int,
    ops: int,
    addrs: int,
    values: str,
    seed: int,
    fault: FaultKind | None = None,
    rate: float = 0.15,
    delay: str = "fixed:1",
):
    """One seeded ``random`` workload run on ``substrate``."""
    cls, protocol = SUBSTRATES[substrate]
    scripts, init = random_shared_workload(
        num_processors=procs,
        ops_per_processor=ops,
        num_addresses=addrs,
        write_fraction=0.35,
        values=values,
        seed=seed,
    )
    cfg = SystemConfig(
        num_processors=procs, protocol=protocol, seed=seed, delay_model=delay
    )
    faults = (
        FaultConfig.none()
        if fault is None
        else FaultConfig(
            kinds=frozenset([fault]), rate=rate, max_events=1, seed=seed
        )
    )
    return cls(cfg, scripts, initial_memory=init, faults=faults).run()


def sim_item(label: str, run) -> Item:
    kind, expected = classify(run)
    return Item(label, kind, expected, run.execution)


def faulted_item(
    label: str, substrate: str, procs: int, ops: int, addrs: int,
    values: str, seed: int, fault: FaultKind, want=(HOLDS, VIOLATED),
    tries: int = 200,
) -> Item:
    """The first faulted run from ``seed`` whose known answer is in
    ``want`` (see the module docstring).  Seeds are walked
    deterministically, so the same ``seed`` gives the same item."""
    for k in range(tries):
        run = simulate(substrate, procs, ops, addrs, values, seed + 7919 * k,
                       fault=fault)
        if classify(run)[1] in want:
            return sim_item(label, run)
    raise RuntimeError(f"{label}: no run with answer in {want} in {tries} seeds")


# ---------------------------------------------------------------------
# Commit-ordered streams for the monitor
# ---------------------------------------------------------------------
@dataclass
class Stream:
    """A framed REPROSTM stream file and its known answer."""

    label: str
    path: str
    expected: str
    #: Stream position of the injected stale read (VIOLATED streams).
    stale_at: int | None = None


def make_stream(
    label: str, path: str, n_procs: int, n_addrs: int, n_ops: int,
    seed: int, stale: bool = False,
) -> Stream:
    """Write a sequentially consistent commit stream (every read returns
    the current value, so the commit order is a witness) over unique
    values to ``path``; with ``stale`` one process writes an address
    twice and then reads its own first value back at a seeded position
    between 45% and 50% of the stream."""
    from repro.core.serialize_bin import dump_stream

    rng = random.Random(seed)
    inject = rng.randrange(n_ops * 9 // 20, n_ops // 2) if stale else -1
    stale_at = None

    def schedule():
        # Yielded one op at a time, so a long stream is never held in
        # memory (set-up memory would otherwise pad the timed part's).
        nonlocal stale_at
        index = [0] * n_procs
        current = {a: 0 for a in range(n_addrs)}
        nxt = 1
        n = 0

        def op(kind: OpKind, p: int, a: int, value) -> Operation:
            nonlocal n
            if kind is OpKind.WRITE:
                o = Operation(kind, a, p, index[p], value_written=value)
                current[a] = value
            else:
                o = Operation(kind, a, p, index[p], value_read=value)
            index[p] += 1
            n += 1
            return o

        while n < n_ops:
            p = rng.randrange(n_procs)
            a = rng.randrange(n_addrs)
            if n == inject:
                first, second = nxt, nxt + 1
                nxt += 2
                yield op(OpKind.WRITE, p, a, first)
                yield op(OpKind.WRITE, p, a, second)
                stale_at = n
                yield op(OpKind.READ, p, a, first)
                continue
            if rng.random() < 0.35:
                yield op(OpKind.WRITE, p, a, nxt)
                nxt += 1
            else:
                yield op(OpKind.READ, p, a, current[a])

    with open(path, "wb") as fh:
        dump_stream(fh, schedule(), n_procs,
                    initial={a: 0 for a in range(n_addrs)})
    return Stream(label, path, VIOLATED if stale else HOLDS, stale_at)
