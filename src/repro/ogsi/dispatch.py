"""Non-blocking dispatch core: per-service serialization + admission control.

The container used to take one global re-entrant lock around every
request, which capped each authority at one in-flight request and made
cross-container notification a lock-ordering deadlock (two containers
delivering into each other's sinks while each held its own dispatch
lock).  This module replaces that lock with three cooperating pieces:

* :class:`ServiceGate` — a re-entrant, *fully releasable* mutex, one per
  deployed service path.  Dispatch serializes per service instead of per
  container, so requests to different services in one container proceed
  concurrently while a single stateful instance still sees one request
  at a time.
* a per-thread **dispatch frame stack** — every dispatch pushes the gate
  it holds; :func:`suspend_dispatch` releases every gate the current
  thread holds for the duration of an outbound SOAP call (notification
  delivery), restoring them afterwards.  No SOAP round trip is ever made
  while holding dispatch state, which is the deadlock fix.
* :class:`AdmissionController` — a bounded request queue at the
  container ingress with per-client fair (round-robin) queueing (a
  :class:`FairQueue`, the same primitive the fan-out scheduler uses) and
  load-shedding: when the queue is at its configured bound, the request
  is refused with a ``Server``-role busy :class:`BusyFault` instead of
  piling onto the convoy.  Nested dispatches (a service calling another
  service mid-request) bypass admission — admitted work must be able to
  run to completion, or a saturated queue deadlocks against itself.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, TypeVar

from repro.soap.faults import SoapFault
from repro.xmlkit import Element


class BusyFault(SoapFault):
    """The load-shedding fault: the container refused to queue a request.

    Always ``Server``-role (the caller did nothing wrong; retrying later
    is legitimate) with a ``ServerBusy`` detail so clients can tell a
    shed from an application fault.
    """

    def __init__(self, message: str) -> None:
        super().__init__("Server", message, detail="ServerBusy")


def is_busy_fault(fault: SoapFault) -> bool:
    """True when *fault* is a load-shed (client-side faults re-decode)."""
    return fault.code == "Server" and fault.detail == "ServerBusy"


# --------------------------------------------------------------------- gates
class ServiceGate:
    """A re-entrant mutex whose full recursion depth can be released.

    ``release_save``/``acquire_restore`` (the :class:`threading.Condition`
    idiom) let :func:`suspend_dispatch` drop the gate across an outbound
    call even when dispatch has nested back into the same service.
    """

    __slots__ = ("_cond", "_owner", "_depth")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._owner: int | None = None
        self._depth = 0

    def acquire(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._owner == me:
                self._depth += 1
                return
            while self._owner is not None:
                self._cond.wait()
            self._owner = me
            self._depth = 1

    def release(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                raise RuntimeError("release of a gate not owned by this thread")
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._cond.notify()

    def release_save(self) -> int:
        """Release the gate completely; returns the saved depth."""
        me = threading.get_ident()
        with self._cond:
            if self._owner != me:
                raise RuntimeError("release_save of a gate not owned by this thread")
            depth, self._depth, self._owner = self._depth, 0, None
            self._cond.notify()
            return depth

    def acquire_restore(self, depth: int) -> None:
        """Re-take the gate at the previously saved recursion depth."""
        me = threading.get_ident()
        with self._cond:
            while self._owner is not None:
                self._cond.wait()
            self._owner = me
            self._depth = depth

    def held_by_me(self) -> bool:
        return self._owner == threading.get_ident()


class _Frames(threading.local):
    def __init__(self) -> None:  # per-thread initializer
        self.stack: list[ServiceGate] = []


_FRAMES = _Frames()


def in_dispatch() -> bool:
    """True while the current thread is inside any container dispatch."""
    return bool(_FRAMES.stack)


def dispatch_depth() -> int:
    return len(_FRAMES.stack)


@contextmanager
def dispatch_frame(gate: ServiceGate) -> Iterator[None]:
    """Hold *gate* for one dispatch, visible to :func:`suspend_dispatch`."""
    gate.acquire()
    _FRAMES.stack.append(gate)
    try:
        yield
    finally:
        _FRAMES.stack.pop()
        gate.release()


@contextmanager
def suspend_dispatch() -> Iterator[None]:
    """Release every dispatch gate this thread holds for the duration.

    The notification source wraps its delivery loop in this so the SOAP
    round trips into other containers are made with no dispatch state
    held — the cross-container deadlock fix.  Gates are restored in
    their original (outermost-first) acquisition order.
    """
    unique: list[ServiceGate] = []
    for gate in _FRAMES.stack:  # outermost first; dedupe nested re-entries
        if gate not in unique:
            unique.append(gate)
    saved = [(gate, gate.release_save()) for gate in reversed(unique)]
    try:
        yield
    finally:
        for gate, depth in reversed(saved):  # outermost first again
            gate.acquire_restore(depth)


# ----------------------------------------------------------------- fair queue
T = TypeVar("T")


class FairQueue(Generic[T]):
    """Per-key FIFOs served round-robin across keys.

    :meth:`pop` takes the head of the first key in the rotation and, if
    that key still has items, moves it to the rotation's tail — so one
    key with a deep backlog lengthens only its own FIFO.  A key whose
    FIFO empties (by :meth:`pop` or :meth:`shed_heads`) leaves the
    rotation and rejoins at the tail on its next :meth:`push`.

    Not thread-safe: every caller already guards its queue with its own
    condition, and the queue is only touched under it.
    """

    __slots__ = ("_fifos", "_rotation", "_size")

    def __init__(self) -> None:
        self._fifos: dict[str, deque[T]] = {}
        #: keys that currently have items, in service order
        self._rotation: deque[str] = deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, key: str, item: T) -> None:
        fifo = self._fifos.get(key)
        if fifo is None:
            fifo = self._fifos[key] = deque()
            self._rotation.append(key)
        fifo.append(item)
        self._size += 1

    def pop(self) -> T | None:
        """The next item in round-robin order (``None`` when empty)."""
        if not self._rotation:
            return None
        key = self._rotation.popleft()
        fifo = self._fifos[key]
        item = fifo.popleft()
        if fifo:
            self._rotation.append(key)
        else:
            del self._fifos[key]
        self._size -= 1
        return item

    def depth(self, key: str) -> int:
        fifo = self._fifos.get(key)
        return len(fifo) if fifo is not None else 0

    def shed_heads(self, expired: Callable[[T], bool]) -> list[T]:
        """Remove each key's leading items for which *expired* holds.

        Only heads are examined: items are pushed in arrival order, so
        when the head of a FIFO has not expired nothing behind it has.
        """
        shed: list[T] = []
        for key in list(self._rotation):
            fifo = self._fifos[key]
            while fifo and expired(fifo[0]):
                shed.append(fifo.popleft())
            if not fifo:
                del self._fifos[key]
                self._rotation.remove(key)
        self._size -= len(shed)
        return shed

    def drain(self) -> list[T]:
        """Remove and return every item (per key, keys in rotation order)."""
        items = [item for key in self._rotation for item in self._fifos[key]]
        self._fifos.clear()
        self._rotation.clear()
        self._size = 0
        return items


# ----------------------------------------------------------------- admission
class AdmissionController:
    """Bounded ingress queue with per-client fair (round-robin) admission.

    ``max_inflight`` is the number of requests dispatched concurrently
    (``None`` = unbounded: no queueing ever happens); ``max_queue_depth``
    bounds how many requests may wait (``None`` = unbounded queue; ``0``
    = shed immediately when saturated).  Waiters are kept in one FIFO per
    client and admitted round-robin across clients, so one aggressive
    client cannot starve the rest.
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        self.max_inflight = max_inflight
        self.max_queue_depth = max_queue_depth
        self._cond = threading.Condition()
        #: waiting tickets (single-element lists), one FIFO per client
        self._waiters: FairQueue[list[bool]] = FairQueue()
        self.inflight = 0
        self.admitted = 0
        self.shed = 0
        self.queue_waits = 0
        self.peak_inflight = 0
        self.peak_queued = 0

    @property
    def queued(self) -> int:
        """Requests currently waiting for admission."""
        return len(self._waiters)

    def acquire(self, client: str) -> None:
        """Admit one request for *client*, queueing or shedding as needed.

        Raises :class:`BusyFault` when the wait queue is at its bound.
        """
        with self._cond:
            if self.max_inflight is None or (
                self.inflight < self.max_inflight and not self._waiters
            ):
                self._admit_locked()
                return
            if (
                self.max_queue_depth is not None
                and self.queued >= self.max_queue_depth
            ):
                self.shed += 1
                raise BusyFault(
                    f"busy: {self.queued} request(s) already queued "
                    f"(bound {self.max_queue_depth}), try again later"
                )
            ticket: list[bool] = [False]
            self._waiters.push(client, ticket)
            self.queue_waits += 1
            self.peak_queued = max(self.peak_queued, self.queued)
            while not ticket[0]:
                self._cond.wait()

    def release(self) -> None:
        """One dispatched request finished; admit the next fair waiter."""
        with self._cond:
            self.inflight -= 1
            self._grant_locked()
            if self.inflight == 0 and self.queued == 0:
                self._cond.notify_all()  # wake wait_idle

    def wait_idle(self, timeout: float = 5.0) -> bool:
        """Block until no request is in flight or queued (True on success).

        The teardown half of the admission contract: environment close
        drains in-flight dispatches through this before stopping the
        reactor, so a service mid-request never sees its infrastructure
        vanish under it.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.inflight > 0 or self.queued > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=min(remaining, 0.05))
            return True

    def _admit_locked(self) -> None:
        self.inflight += 1
        self.admitted += 1
        self.peak_inflight = max(self.peak_inflight, self.inflight)

    def _grant_locked(self) -> None:
        granted = False
        while self._waiters and (
            self.max_inflight is None or self.inflight < self.max_inflight
        ):
            ticket = self._waiters.pop()
            ticket[0] = True
            self._admit_locked()
            granted = True
        if granted:
            self._cond.notify_all()

    def snapshot(self) -> dict[str, int]:
        with self._cond:
            return {
                "inflight": self.inflight,
                "queueDepth": self.queued,
                "admitted": self.admitted,
                "shed": self.shed,
                "queueWaits": self.queue_waits,
                "peakInflight": self.peak_inflight,
                "peakQueueDepth": self.peak_queued,
            }


# -------------------------------------------------------------- dispatch core
class DispatchCore:
    """One container's gate table: one :class:`ServiceGate` per path.

    The container asks it for the gate of every dispatch and sweep, so a
    subclass can change the serialization policy as a whole (the
    concurrency benchmark's whole-container-lock baseline hands every
    path one shared gate).
    """

    def __init__(self) -> None:
        self._gates: dict[str, ServiceGate] = {}
        self._lock = threading.Lock()

    def gate_for(self, path: str) -> ServiceGate:
        with self._lock:
            gate = self._gates.get(path)
            if gate is None:
                gate = self._gates[path] = ServiceGate()
            return gate

    def discard(self, path: str) -> None:
        """Forget a removed service's gate (holders keep their reference)."""
        with self._lock:
            self._gates.pop(path, None)


# ------------------------------------------------------------ client identity
#: SOAP header element name carrying an explicit client identity
CLIENT_ID_HEADER = "clientId"


class _ClientContext(threading.local):
    value: str | None = None


_CLIENT_CONTEXT = _ClientContext()


def current_client_id() -> str | None:
    """The ``clientId`` header of the request this thread is dispatching.

    ``None`` outside dispatch, and for requests that carried no header —
    the engine's tenant scheduling then falls back to its default
    tenant, exactly as admission control falls back to the thread key.
    """
    return _CLIENT_CONTEXT.value


@contextmanager
def client_context(client_id: str | None) -> Iterator[None]:
    """Make *client_id* visible via :func:`current_client_id` within."""
    previous = _CLIENT_CONTEXT.value
    _CLIENT_CONTEXT.value = client_id
    try:
        yield
    finally:
        _CLIENT_CONTEXT.value = previous

_CLIENT_ID_RE = re.compile(
    rb"<(?:[A-Za-z0-9_.-]+:)?clientId(?:\s[^>]*)?>([^<]{1,128})</"
)


def extract_client_id(request: bytes) -> str | None:
    """Cheaply pull a ``<clientId>`` header value out of raw request bytes.

    Admission runs *before* the envelope is parsed (shedding must stay
    cheap under overload), so the client key comes from a byte scan, not
    a DOM walk.  Absent header -> ``None``; the container then falls back
    to the calling thread's identity, which is exactly one simulated
    client in every harness this repo runs.
    """
    match = _CLIENT_ID_RE.search(request)
    if match is None:
        return None
    return match.group(1).decode("utf-8", "replace").strip() or None


def client_id_headers(client_id: str) -> Callable[[str, bytes], list[Element]]:
    """A stub ``headers_provider`` stamping every request with *client_id*."""
    if not client_id:
        raise ValueError("client_id may not be empty")

    def provider(_operation: str, _payload: bytes) -> list[Element]:
        return [Element(CLIENT_ID_HEADER, children=[client_id])]

    return provider
