"""Split-transaction message fabric for the directory substrate.

The snooping bus in :mod:`repro.memsys.system` is atomic: one
operation per step, globally visible.  Real directory machines are
nothing like that — every coherence action is a *message* between a
core controller and a home node, in flight for several cycles, racing
other messages.  This module models that fabric:

* typed :class:`Message` objects (GetS / GetM / PutM / Inv / InvAck /
  FwdGetS / FwdGetM / Data / DataWB / NACK) between endpoints
  ``("core", i)`` and ``("home", j)``;
* per-link queues that are FIFO by default (messages on one link never
  overtake each other) but can be opened up to reordering;
* seeded :class:`DelayModel` latencies — fixed, uniform, and a NUMA
  two-tier model where crossing the socket boundary costs more;
* fault hooks: the :class:`~repro.memsys.faults.FaultInjector` gets a
  per-message opportunity to drop, duplicate, delay, or reorder
  traffic (``DROPPED_MSG`` / ``DUPLICATED_MSG`` / ``DELAYED_MSG`` /
  ``REORDERED_MSG``), and every injection is recorded for the latency
  oracle.

Delivery is a simple discrete-event loop: :meth:`Interconnect.send`
stamps an arrival tick, :meth:`Interconnect.deliver_until` pops every
message whose arrival tick has passed, in deterministic (arrival,
sequence) order.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from repro.memsys.faults import FaultInjector, FaultKind
from repro.util.rng import make_rng

#: Endpoint ids: ``("core", i)`` or ``("home", j)``.
Endpoint = tuple[str, int]

#: The fault sites :meth:`Interconnect.send` fires; while none of them
#: is live, a send formats no detail and makes no fault draw.
LINK_FAULTS: frozenset[FaultKind] = frozenset(
    {
        FaultKind.DROPPED_INV_ACK,
        FaultKind.DROPPED_MSG,
        FaultKind.DELAYED_MSG,
        FaultKind.REORDERED_MSG,
        FaultKind.DUPLICATED_MSG,
    }
)


class MessageType(enum.Enum):
    GETS = "GetS"  # core -> home: read miss, want Shared
    GETM = "GetM"  # core -> home: write miss/upgrade, want Modified
    PUTM = "PutM"  # core -> home: dirty eviction, data attached
    INV = "Inv"  # home -> core: invalidate your copy
    INV_ACK = "InvAck"  # core -> home: invalidation done
    FWD_GETS = "FwdGetS"  # home -> owner: send data home, demote to S
    FWD_GETM = "FwdGetM"  # home -> owner: send data home, invalidate
    DATA = "Data"  # home -> core: grant + line data
    DATA_WB = "DataWB"  # owner -> home: forwarded dirty data
    NACK = "Nack"  # home -> core: busy, retry later


@dataclass
class Message:
    """One coherence message.  ``addr`` is the line base address,
    ``txn`` the requester-side transaction id (so stale replies from a
    timed-out attempt can be recognized and dropped), ``data`` the line
    payload ({word offset -> value}) where the type carries one, and
    ``detail`` what a DATA grant grants (``"shared"``/``"modified"``)."""

    mtype: MessageType
    src: Endpoint
    dst: Endpoint
    addr: int
    txn: int = 0
    data: dict[int, object] | None = None
    detail: str = ""


class DelayModel:
    """Maps (src, dst) to a link latency in ticks."""

    name = "fixed"

    def delay(self, src: Endpoint, dst: Endpoint, rng) -> int:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class FixedDelay(DelayModel):
    def __init__(self, ticks: int = 1):
        self.ticks = max(0, int(ticks))

    def delay(self, src: Endpoint, dst: Endpoint, rng) -> int:
        return self.ticks

    def describe(self) -> str:
        return f"fixed:{self.ticks}"


class UniformDelay(DelayModel):
    """Seeded uniform latency in ``[lo, hi]`` ticks."""

    name = "uniform"

    def __init__(self, lo: int = 1, hi: int = 4):
        if lo > hi:
            lo, hi = hi, lo
        self.lo = max(0, int(lo))
        self.hi = max(0, int(hi))

    def delay(self, src: Endpoint, dst: Endpoint, rng) -> int:
        return rng.randint(self.lo, self.hi)

    def describe(self) -> str:
        return f"uniform:{self.lo}:{self.hi}"


class NumaDelay(DelayModel):
    """Two-tier NUMA latency: endpoints are grouped into sockets of
    ``socket_size`` consecutive ids (cores and homes use the same
    grouping), intra-socket links cost ``local``, cross-socket links
    cost ``remote``."""

    name = "numa"

    def __init__(self, local: int = 1, remote: int = 6, socket_size: int = 4):
        self.local = max(0, int(local))
        self.remote = max(0, int(remote))
        self.socket_size = max(1, int(socket_size))

    def _socket(self, ep: Endpoint) -> int:
        return ep[1] // self.socket_size

    def delay(self, src: Endpoint, dst: Endpoint, rng) -> int:
        if self._socket(src) == self._socket(dst):
            return self.local
        return self.remote

    def describe(self) -> str:
        return f"numa:{self.local}:{self.remote}:{self.socket_size}"


def make_delay_model(spec: str | DelayModel | None) -> DelayModel:
    """Parse ``"fixed:T"`` / ``"uniform:LO:HI"`` / ``"numa:L:R[:S]"``."""
    if spec is None:
        return FixedDelay(1)
    if isinstance(spec, DelayModel):
        return spec
    parts = str(spec).split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "fixed":
            return FixedDelay(*(int(a) for a in args)) if args else FixedDelay(1)
        if name == "uniform":
            if len(args) != 2:
                raise ValueError("uniform wants uniform:LO:HI")
            return UniformDelay(int(args[0]), int(args[1]))
        if name == "numa":
            if len(args) not in (2, 3):
                raise ValueError("numa wants numa:LOCAL:REMOTE[:SOCKET_SIZE]")
            return NumaDelay(*(int(a) for a in args))
    except ValueError as exc:
        raise ValueError(f"bad delay model spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown delay model {name!r}; choose fixed | uniform | numa"
    )


@dataclass
class InterconnectStats:
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0


class Interconnect:
    """The message fabric.

    ``fifo=True`` (the default) enforces per-link ordering: a message's
    arrival tick is clamped to be no earlier than the previously sent
    message on the same (src, dst) link, so later sends never overtake
    earlier ones.  ``fifo=False`` lets the raw delays reorder freely.

    ``REORDERED_MSG`` injections punch a hole in the FIFO guarantee for
    one message even when ``fifo=True`` — that is precisely the fault.
    """

    def __init__(
        self,
        delay_model: DelayModel | str | None = None,
        *,
        fifo: bool = True,
        seed: int | None = 0,
        injector: FaultInjector | None = None,
    ):
        self.delay_model = make_delay_model(delay_model)
        self.fifo = fifo
        self.rng = make_rng(seed)
        self.injector = injector
        self.stats = InterconnectStats()
        self._queue: list[tuple[int, int, Message]] = []
        self._seq = 0
        self._last_arrival: dict[tuple[Endpoint, Endpoint], int] = {}

    # -- sending ------------------------------------------------------
    def send(self, msg: Message, now: int) -> None:
        self.stats.sent += 1
        key = msg.mtype.value

        inj = self.injector
        faulty = inj is not None and not LINK_FAULTS.isdisjoint(inj.live)
        if faulty and (
            (
                msg.mtype is MessageType.INV_ACK
                and self._fire(FaultKind.DROPPED_INV_ACK, msg, now, "inv-ack", "lost")
            )
            or self._fire(FaultKind.DROPPED_MSG, msg, now, key, "lost")
        ):
            self.stats.dropped += 1
            return

        arrival = now + 1 + self.delay_model.delay(msg.src, msg.dst, self.rng)
        link = (msg.src, msg.dst)

        if faulty and self._fire(FaultKind.DELAYED_MSG, msg, now, key, "delayed"):
            arrival += 5 + self.rng.randint(0, 10)
            self.stats.delayed += 1

        last = self._last_arrival.get(link, 0)
        if faulty and self._fire(
            FaultKind.REORDERED_MSG, msg, now, key, "overtaken on link"
        ):
            # Slip behind whatever is already queued on this link.
            arrival = max(arrival, last) + 1 + self.rng.randint(0, 3)
            self.stats.reordered += 1
        elif self.fifo and arrival < last:
            arrival = last
        self._last_arrival[link] = max(last, arrival)

        self._push(arrival, msg)

        if faulty and self._fire(FaultKind.DUPLICATED_MSG, msg, now, key, "duplicated"):
            dup_arrival = arrival + 1 + self.rng.randint(0, 3)
            self._last_arrival[link] = max(self._last_arrival[link], dup_arrival)
            self._push(dup_arrival, msg)
            self.stats.duplicated += 1

    def _fire(
        self, kind: FaultKind, msg: Message, now: int, what: str, effect: str
    ) -> bool:
        """One link-site opportunity for ``msg``.  The event's detail is
        formatted only when the site is live."""
        inj = self.injector
        if kind not in inj.live:
            return False
        src, dst = msg.src, msg.dst
        proc = src[1] if src[0] == "core" else (dst[1] if dst[0] == "core" else -1)
        return inj.fire(kind, now, proc, msg.addr, detail=f"{what} {src}->{dst} {effect}")

    def _push(self, arrival: int, msg: Message) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (arrival, self._seq, msg))

    # -- delivery -----------------------------------------------------
    def deliver_until(self, now: int) -> list[Message]:
        """Pop every message with arrival tick <= ``now``."""
        out = []
        while self._queue and self._queue[0][0] <= now:
            _, _, msg = heapq.heappop(self._queue)
            out.append(msg)
            self.stats.delivered += 1
        return out

    def pending(self) -> int:
        return len(self._queue)

    def next_arrival(self) -> int | None:
        return self._queue[0][0] if self._queue else None
