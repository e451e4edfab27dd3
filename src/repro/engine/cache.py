"""Canonical-fingerprint result caching.

Memsys campaigns and benchmark sweeps verify thousands of per-address
sub-executions, and a large fraction are *the same instance up to
renaming*: the same read/write pattern at a different address, with
different value names, or with the processes permuted.  Coherence is
invariant under all three relabelings, so the engine hashes a canonical
form of every task and serves repeats from a dictionary.

Canonicalization (:func:`canonicalize`):

* empty process histories are dropped (they cannot constrain a
  schedule);
* addresses are renamed to dense ids by first appearance;
* values (including initial and final values) are renamed to dense ids
  by first appearance — the initial value of the first address always
  becomes id 0;
* each history becomes a tuple of ``(kind, addr_id, read_id,
  write_id)`` codes, positions replacing the original program-order
  indices (sub-executions keep gappy parent indices);
* histories are sorted lexicographically, making the fingerprint
  invariant under most process permutations.

Equal fingerprints imply the two instances are isomorphic (the
fingerprint is a faithful relabeling), so a cached verdict — and a
cached witness, stored as canonical op positions and mapped back onto
the new execution's operations — is always correct.  The converse does
not hold: some isomorphic pairs hash differently (value ids are
assigned before histories are sorted), which only costs a cache miss,
never a wrong answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Sequence

from repro.core.result import Certificate, VerificationResult
from repro.core.types import Execution, Operation

if TYPE_CHECKING:
    from repro.engine.store import ResultStore


@dataclass
class CanonicalInstance:
    """A task's canonical form plus the maps back to the real ops."""

    key: Hashable
    #: Flat canonical op list: histories in canonical order, program
    #: order within each; entries are the *original* operations.
    ops: list[Operation]
    #: uid -> position in ``ops``.
    index_of: dict[tuple[int, int], int]


def canonicalize(
    execution: Execution,
    write_order: Sequence[Operation] | None = None,
    problem: str = "vmc",
    method: str = "auto",
) -> CanonicalInstance:
    """Compute the canonical form of one verification task.

    Runs over the columnar view's interned ids — one remap of the
    already-deduplicated tables instead of re-hashing every operation's
    objects — and produces keys identical to the original object walk
    (interning uses the same hash/== semantics).
    """
    from repro.core.columnar import KINDS_BY_CODE

    view = execution.columnar()
    col_kinds = view.kinds
    col_addr = view.addr_ids
    col_rv = view.read_vids
    col_wv = view.write_vids

    # Canonical address order: touched ids by first appearance (the
    # view's own order), then final-only addresses ordered by repr so
    # dict insertion order cannot leak into the key.  Initial-only
    # addresses stay out of the key (they cannot constrain a schedule).
    addr_order = list(range(view.n_touched))
    addr_order += sorted(
        range(view.n_touched, view.n_constrained),
        key=lambda ai: repr(view.addrs[ai]),
    )
    canon_aid = {ai: i for i, ai in enumerate(addr_order)}

    # Canonical value ids: remap view vids by first appearance —
    # initial values (canonical address order) first, then op values in
    # flat order, then finals.
    canon_vid: dict[int, int] = {}

    def cvid(vv: int) -> int:
        i = canon_vid.get(vv)
        if i is None:
            i = canon_vid[vv] = len(canon_vid)
        return i

    for ai in addr_order:
        cvid(view.initial_ids[ai])
    encoded: list[tuple] = []
    nonempty: list[int] = []
    for p in range(view.n_procs):
        s = view.proc_slice(p)
        if s.start == s.stop:
            continue  # empty histories cannot constrain a schedule
        nonempty.append(p)
        row = []
        for pos in range(s.start, s.stop):
            rv = col_rv[pos]
            wv = col_wv[pos]
            row.append(
                (
                    KINDS_BY_CODE[col_kinds[pos]].value,
                    canon_aid[col_addr[pos]],
                    cvid(rv) if rv >= 0 else -1,
                    cvid(wv) if wv >= 0 else -1,
                )
            )
        encoded.append(tuple(row))
    constraints = tuple(
        (
            canon_vid[view.initial_ids[ai]],
            cvid(view.final_ids[ai]) if view.final_ids[ai] >= 0 else -1,
        )
        for ai in addr_order
    )

    perm = sorted(range(len(encoded)), key=lambda p: encoded[p])
    flat: list[Operation] = []
    index_of: dict[tuple[int, int], int] = {}
    for p in perm:
        s = view.proc_slice(nonempty[p])
        for pos in range(s.start, s.stop):
            op = view.op_at(pos)
            index_of[op.uid] = len(flat)
            flat.append(op)

    wo_key: tuple | None = None
    if write_order is not None:
        # Encode content as well as identity: a (possibly faulty)
        # memory system may hand back an order containing operations
        # that are missing from, or disagree with, the execution — the
        # write-order backend decides such instances "not coherent
        # under this order", and the fingerprint must distinguish them.
        # Foreign values (absent from the trace) extend the canonical
        # numbering by value equality, like the old object walk did.
        value_key: dict[Hashable, int] = {
            view.values[vv]: cid for vv, cid in canon_vid.items()
        }

        def vkey(v: Hashable) -> int:
            cid = value_key.get(v)
            if cid is None:
                cid = value_key[v] = len(value_key)
            return cid

        wo_key = tuple(
            (
                index_of.get(op.uid, -1),
                op.kind.value,
                vkey(op.value_read) if op.kind.reads else -1,
                vkey(op.value_written) if op.kind.writes else -1,
            )
            for op in write_order
        )

    key = (
        problem,
        method,
        tuple(encoded[p] for p in perm),
        constraints,
        wo_key,
    )
    return CanonicalInstance(key=key, ops=flat, index_of=index_of)


@dataclass
class _Entry:
    holds: bool
    method: str
    reason: str
    schedule_idx: list[int] | None
    stats: dict[str, Any]
    #: The verdict's certificate, stored verbatim.  Witness markers
    #: transfer to any isomorphic hit (the schedule is re-materialized
    #: onto the new ops); refutation certificates reference original
    #: uids / variable numberings, so a permuted hit may fail the
    #: on-hit re-validation — which costs a recompute, never a wrong
    #: answer.
    certificate: Certificate | None = None
    #: Whether the entry was loaded from the persistent store tier (so
    #: a later validation failure is charged to the store, not to the
    #: in-memory cache).
    from_store: bool = False


@dataclass
class CacheStats:
    #: Served from the in-memory tier.
    hits: int = 0
    #: Missed both the in-memory tier and the store (if attached).
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Hits whose re-materialized result failed the on-hit check (a
    #: witness that no longer replays, or a certificate the trusted
    #: checker rejects): the entry is dropped and the task recomputed.
    validation_failures: int = 0
    #: Served from the persistent store tier (memory miss, disk hit).
    store_hits: int = 0
    #: Store-loaded entries that failed the on-hit check — corrupt,
    #: stale, or tampered records evicted (tombstoned) and recomputed.
    store_revalidation_failures: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.store_hits + self.misses
        return (self.hits + self.store_hits) / total if total else 0.0

    def summary(self) -> str:
        text = (
            f"{self.hits} memory hit / {self.store_hits} store hit / "
            f"{self.misses} miss "
            f"({self.hit_rate:.0%}), {self.stores} stored, "
            f"{self.evictions} evicted, "
            f"{self.validation_failures} failed validation"
        )
        if self.store_revalidation_failures:
            text += (
                f", {self.store_revalidation_failures} store records "
                f"failed revalidation"
            )
        return text


class ResultCache:
    """Thread-safe verdict/witness cache keyed by canonical fingerprint.

    The witness is stored as canonical op positions; on a hit it is
    re-materialized with the *current* execution's operations, so the
    returned schedule passes :mod:`repro.core.checker` for the new
    instance even though it was computed for an isomorphic one.

    With a :class:`~repro.engine.store.ResultStore` attached the cache
    becomes two-tiered: lookups fall through to the store on a memory
    miss (read-through, the loaded entry is promoted into memory) and
    every store writes through to disk — so the executor, pre-pass,
    portfolio, streaming, and batch paths all gain cross-run
    persistence without any call-site change.  Store-loaded verdicts
    pass through the same on-hit validation seam as memory hits
    (:func:`repro.engine.executor._cache_lookup`); a failure evicts the
    record from *both* tiers and recomputes.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        store: "ResultStore | None" = None,
    ):
        self._data: dict[Hashable, _Entry] = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.store_tier = store
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._data)

    def _install(self, key: Hashable, entry: _Entry) -> None:
        """Insert under the lock, honouring ``max_entries`` (FIFO)."""
        if (
            self.max_entries is not None
            and key not in self._data
            and len(self._data) >= self.max_entries
        ):
            self._data.pop(next(iter(self._data)))
            self.stats.evictions += 1
        self._data[key] = entry

    def lookup(self, canon: CanonicalInstance) -> VerificationResult | None:
        with self._lock:
            entry = self._data.get(canon.key)
            if entry is not None:
                self.stats.hits += 1
        from_store = False
        if entry is None and self.store_tier is not None:
            rec = self.store_tier.lookup(canon)
            if rec is not None:
                entry = _Entry(
                    holds=rec["holds"],
                    method=rec["method"],
                    reason=rec["reason"],
                    schedule_idx=rec["schedule_idx"],
                    stats=rec["stats"],
                    certificate=rec.get("certificate"),
                    from_store=True,
                )
                from_store = True
                with self._lock:
                    self._install(canon.key, entry)
                    self.stats.store_hits += 1
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            return None
        schedule = None
        if entry.schedule_idx is not None:
            schedule = [canon.ops[i] for i in entry.schedule_idx]
        stats = dict(entry.stats)
        stats["cache_hit"] = True
        if from_store:
            stats["store_hit"] = True
        return VerificationResult(
            holds=entry.holds,
            method=entry.method,
            schedule=schedule,
            reason=entry.reason,
            stats=stats,
            certificate=entry.certificate,
        )

    def invalidate(self, canon: CanonicalInstance) -> None:
        """Drop an entry whose re-materialized result failed the on-hit
        check; the caller recomputes the task as if it had missed.  A
        store-loaded entry is tombstoned on disk too — a corrupt or
        stale record must never be trusted by a later run either."""
        with self._lock:
            entry = self._data.pop(canon.key, None)
            self.stats.validation_failures += 1
            if entry is not None and entry.from_store:
                self.stats.store_revalidation_failures += 1
        if self.store_tier is not None:
            self.store_tier.invalidate(canon)

    def store(self, canon: CanonicalInstance, result: VerificationResult) -> None:
        schedule_idx = None
        if result.schedule is not None:
            try:
                schedule_idx = [canon.index_of[op.uid] for op in result.schedule]
            except KeyError:
                # A witness op outside the canonical listing (should not
                # happen for engine tasks); skip witness caching.
                schedule_idx = None
        entry = _Entry(
            holds=result.holds,
            method=result.method,
            reason=result.reason,
            schedule_idx=schedule_idx,
            stats={
                k: v
                for k, v in result.stats.items()
                if k not in ("cache_hit", "store_hit", "t_certify")
            },
            certificate=result.certificate,
        )
        with self._lock:
            if canon.key not in self._data:
                self.stats.stores += 1
            self._install(canon.key, entry)
        if self.store_tier is not None and not result.unknown:
            self.store_tier.put(
                canon,
                holds=bool(entry.holds),
                method=entry.method,
                reason=entry.reason,
                schedule_idx=entry.schedule_idx or None,
                stats=entry.stats,
                certificate=entry.certificate,
            )

    def flush_store(self) -> None:
        """Persist buffered write-through entries (one fsync batch per
        dirty shard); a no-op without a store tier."""
        if self.store_tier is not None:
            self.store_tier.flush()

    def clear(self) -> None:
        """Reset the in-memory tier and counters (the store survives)."""
        with self._lock:
            self._data.clear()
            self.stats = CacheStats()


def fingerprint(
    execution: Execution,
    write_order: Sequence[Operation] | None = None,
    problem: str = "vmc",
    method: str = "auto",
) -> Hashable:
    """The canonical cache key of a task (mostly for tests/debugging)."""
    return canonicalize(execution, write_order, problem, method).key
