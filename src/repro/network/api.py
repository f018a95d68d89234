"""Backend-agnostic network interface.

ASTRA-SIM is "highly portable ... it can be ported on top of any network
simulator using a lightweight interface" (Sec. IV).  This module is that
interface: the system layer only ever calls :meth:`NetworkBackend.send`
with an explicit link path and a delivery callback, plus
:meth:`NetworkBackend.schedule` for timed events.  Two implementations
exist: :class:`repro.network.fast_backend.FastBackend` (default) and
:class:`repro.network.detailed.backend.DetailedBackend` (flit-level).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.events.engine import EventHandle, EventQueue
from repro.network.link import Link

#: What a backend hands ``on_delivered`` when a message arrives: the
#: tuple ``(on_delivered, src, dst, size_bytes, tag, created_at,
#: injected_at)``.  The delivery time is the event queue's ``now`` when
#: the callback runs.  The fast backend queues exactly this tuple per
#: send, so a delivery costs no object beyond it.
DeliveryRecord = tuple
DeliveryCallback = Callable[[DeliveryRecord], None]
#: ``(kind, reason)`` of a message the fault layer dropped at injection
#: (see :meth:`repro.network.fault_schedule.FaultState.classify`).
Drop = tuple[str, str]


class NetworkBackend(abc.ABC):
    """The lightweight network interface of Fig. 6.

    ``sanitizer`` (optional, see :mod:`repro.sanitize.runtime`) receives
    send/delivery conservation events; when absent the default path is
    unchanged.
    """

    def __init__(self, events: EventQueue, sanitizer=None):
        self.events = events
        self.sanitizer = sanitizer
        self.messages_delivered = 0
        self.bytes_delivered = 0.0
        #: Live fault state (see :mod:`repro.network.fault_schedule`); when
        #: set, both backends consult it at injection time and silently drop
        #: doomed messages.  ``None`` keeps the healthy path unchanged.
        self.faults = None
        self.messages_dropped = 0
        #: id(path) -> ``(path, src, dst)`` of every route already checked
        #: by :func:`validate_path`.  Routes come from the topology layer's
        #: route caches, a small fixed set of lists reused for every send,
        #: so after a route's first send its check is one dict hit.  The
        #: entry's reference keeps the list alive, so its id cannot be
        #: reused; a list sent between other endpoints is checked again (a
        #: route-table bug validate_path must catch).
        self._validated_routes: dict[int, tuple] = {}

    @property
    def now(self) -> float:
        return self.events.now

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Expose the event queue to upper layers (Sec. IV)."""
        return self.events.schedule(delay, callback)

    @abc.abstractmethod
    def send(self, src: int, dst: int, size_bytes: float, path: list[Link],
             tag: object, on_delivered: DeliveryCallback) -> Optional[Drop]:
        """Inject one ``size_bytes`` message from ``src`` to ``dst`` along
        ``path``; call ``on_delivered(record)`` at arrival.

        ``path`` is an ordered list of physical links whose endpoints chain
        from ``src`` to ``dst`` (possibly through switch endpoints).
        ``tag`` is opaque to the network: it comes back in the delivery
        record so receivers can demultiplex.  Returns the fault layer's
        ``(kind, reason)`` when the message is dropped at injection (it
        will never be delivered), ``None`` otherwise.
        """

    def _validate_route(self, src: int, dst: int, path: list[Link]) -> None:
        """:func:`validate_path`, once per route list and endpoints."""
        cached = self._validated_routes.get(id(path))
        if cached is None or cached[1] != src or cached[2] != dst:
            validate_path(src, dst, path)
            self._validated_routes[id(path)] = (path, src, dst)

    def _drop_if_faulty(self, src: int, dst: int, path: list[Link]) -> Optional[Drop]:
        """Apply the installed fault state at injection time.

        Returns ``(kind, reason)`` when the message is lost (down link,
        paused endpoint, or probabilistic drop): the backend must then
        inject nothing — recovery is the reliable transport's job.  Call
        after counting the send so conservation balances as
        ``sent == delivered + dropped``.
        """
        if self.faults is None:
            return None
        drop = self.faults.classify(src, dst, path)
        if drop is None:
            return None
        self.faults.record_drop(drop[1])
        self.messages_dropped += 1
        if self.sanitizer is not None:
            self.sanitizer.conservation.message_dropped()
        return drop


def validate_path(src: int, dst: int, path: list[Link]) -> None:
    """Check that ``path`` actually chains ``src`` -> ``dst`` with
    ``src != dst`` (shared by backends)."""
    from repro.errors import NetworkError

    if src == dst:
        raise NetworkError(f"message src == dst == {src}")
    if not path:
        raise NetworkError(f"empty path for message {src}->{dst}")
    if path[0].src != src:
        raise NetworkError(f"path starts at {path[0].src}, message src is {src}")
    if path[-1].dst != dst:
        raise NetworkError(f"path ends at {path[-1].dst}, message dst is {dst}")
    for a, b in zip(path, path[1:]):
        if a.dst != b.src:
            raise NetworkError(f"discontinuous path: {a!r} then {b!r}")
