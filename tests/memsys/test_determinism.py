"""Golden determinism: a seeded simulator run is pinned byte for byte.

The campaign grades the verifier against the runs the simulators
produce, so an optimisation of a simulator must not change any of
them.  This test runs a fixed matrix of seeded runs and hashes a
canonical encoding of every :class:`RunResult` field — execution,
write-orders, steps, traffic, fault events (detail strings included),
cache stats, commit log, divergences and the oracle's report.

The matrix covers both substrates with every supported fault site, one
at a time and all at once, plus a fault-free control; the directory
under ``fixed:1``, ``uniform:1:4`` and ``numa:1:6:4`` delays; a capped
and an uncapped ``max_events``; a round-robin scheduler; and a lock
workload for the RMW paths.

The encoding sorts every mapping and never takes the ``repr`` of a set
or a float, so the digest does not depend on the Python version or on
``PYTHONHASHSEED``.  To print the digest of the current code::

    PYTHONPATH=src python tests/memsys/test_determinism.py

A change that is meant to alter seeded runs re-pins ``GOLDEN_DIGEST``
and says why.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

from repro.core.types import INITIAL, Execution, Operation
from repro.memsys.directory import DirectorySystem
from repro.memsys.faults import FaultConfig, supported_faults
from repro.memsys.system import MultiprocessorSystem, SystemConfig
from repro.memsys.workloads import lock_contention_workload, random_shared_workload

GOLDEN_DIGEST = "6d8ac4272a97cdb2019d83c79a98a036f8fa0b20a49dfe170548539b61c5cc8e"

SUBSTRATES = {
    "bus": (MultiprocessorSystem, "MESI", ["fixed:1"]),
    "directory": (DirectorySystem, "MSI", ["fixed:1", "uniform:1:4", "numa:1:6:4"]),
}
#: Six cores, so ``numa:1:6:4`` has links across the socket boundary.
PROCS = 6
OPS = 30
ADDRS = 3
FAULT_RATE = 0.15
#: ``None`` lets a site fire many times; 2 exercises the cap.
MAX_EVENTS = (None, 2)


def encode(x):
    """A JSON-ready canonical form of a run's contents."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if x is INITIAL:
        return {"initial": True}
    if isinstance(x, float):
        return {"float": x.hex()}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, Operation):
        return [x.kind.value, encode(x.addr), x.proc, x.index,
                encode(x.value_read), encode(x.value_written)]
    if isinstance(x, Execution):
        return {
            "histories": [[encode(op) for op in h] for h in x.histories],
            "initial": encode(x.initial),
            "final": encode(x.final),
        }
    if dataclasses.is_dataclass(x):
        return {f.name: encode(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        items = [[encode(k), encode(v)] for k, v in x.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))
    if isinstance(x, (set, frozenset)):
        return sorted((encode(v) for v in x), key=json.dumps)
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    raise TypeError(f"no canonical encoding for {type(x).__name__}")


def cases():
    """``(label, system)`` for every run of the matrix, in a fixed order."""
    seed = 100
    for substrate, (cls, protocol, delays) in SUBSTRATES.items():
        for delay in delays:
            configs = [("control", FaultConfig.none())]
            sites = supported_faults(substrate)
            for cap in MAX_EVENTS:
                for site in sites:
                    configs.append((f"{site.value}/cap={cap}", FaultConfig(
                        kinds=frozenset([site]), rate=FAULT_RATE,
                        max_events=cap, seed=seed + 7,
                    )))
                # Every site at once: the cap can fall between two
                # sites of one message or one store.
                configs.append((f"all/cap={cap}", FaultConfig(
                    rates={site: FAULT_RATE / 3 for site in sites},
                    max_events=cap, seed=seed + 7,
                )))
            for name, faults in configs:
                seed += 1
                scripts, init = random_shared_workload(
                    num_processors=PROCS, ops_per_processor=OPS,
                    num_addresses=ADDRS, write_fraction=0.35,
                    values="small", seed=seed,
                )
                cfg = SystemConfig(num_processors=PROCS, protocol=protocol,
                                   seed=seed, num_homes=2, delay_model=delay)
                yield (f"{substrate}/{delay}/{name}",
                       cls(cfg, scripts, initial_memory=init, faults=faults))
        for scheduler in ("random", "round-robin"):
            seed += 1
            scripts, init = lock_contention_workload(
                num_processors=4, acquisitions_per_processor=3, seed=seed
            )
            cfg = SystemConfig(num_processors=4, protocol=protocol, seed=seed,
                               scheduler=scheduler, delay_model="uniform:1:4")
            faults = FaultConfig.from_spec(
                "dropped-write=0.05,corrupted-value=0.05,"
                "reordered-serialization=0.1", seed=seed,
            )
            yield (f"{substrate}/lock/{scheduler}",
                   cls(cfg, scripts, initial_memory=init, faults=faults))


def matrix_digest() -> tuple[str, int, set]:
    """The digest over the matrix, its run count and the sites that fired."""
    h = hashlib.sha256()
    n = 0
    fired = set()
    for label, system in cases():
        run = system.run()
        fired.update(e.kind for e in run.fault_events)
        blob = json.dumps([label, encode(run)], sort_keys=True,
                          separators=(",", ":"))
        h.update(blob.encode())
        h.update(b"\n")
        n += 1
    return h.hexdigest(), n, fired


def test_seeded_runs_match_the_golden_digest():
    digest, n, fired = matrix_digest()
    assert n == 92
    # Every site fires somewhere, so its detail string is pinned too.
    assert fired == set(supported_faults("bus")) | set(supported_faults("directory"))
    assert digest == GOLDEN_DIGEST, (
        "a seeded simulator run changed; if that is intended, re-pin "
        f"GOLDEN_DIGEST = {digest!r}"
    )


def test_encoding_is_canonical():
    assert encode({2: {3, 1}, 1: (INITIAL, 0.5)}) == [
        [1, [{"initial": True}, {"float": "0x1.0000000000000p-1"}]],
        [2, [1, 3]],
    ]


if __name__ == "__main__":
    digest, n, _fired = matrix_digest()
    print(f"{digest} over {n} runs")
