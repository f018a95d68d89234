"""Dynamic fault injection: timed link/node failures driven by the event engine.

Static degradation (:mod:`repro.network.faults`) answers "what does a
permanently slow link cost?".  This module models the *transient* regime
that dominates tail latency at scale: links that flap mid-run, nodes that
pause and resume, and lossy links that drop a fraction of messages.  A
:class:`FaultSchedule` is a JSON-loadable list of timed :class:`FaultEvent`
entries; :meth:`FaultSchedule.install` registers one callback per event on
the simulation's :class:`~repro.events.engine.EventQueue`, so both network
backends honor the schedule through the ordinary event flow — a
``link_down`` at cycle *t* races an in-flight send at *t* in deterministic
schedule order.

Fault semantics are applied at **message injection time**: a message whose
path crosses a down link (or whose endpoint is paused) when the backend
injects it is silently dropped; messages already accepted by the backend
complete normally.  Recovery is the job of the reliable transport
(:mod:`repro.system.transport`), which retransmits on timeout.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.config.fields import Rule, build, check, choice, declare, integer, number
from repro.errors import ConfigError, NetworkError
from repro.network.faults import degrade_link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.engine import EventQueue
    from repro.network.link import Link
    from repro.network.physical.fabric import Fabric

#: A directed physical "cable": every parallel link between the pair is
#: affected together (two local rings between NPUs 0 and 1 share the
#: failure domain of the physical connector).
Endpoints = tuple[int, int]


class FaultAction(enum.Enum):
    """The fault-event vocabulary a schedule may use."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    LINK_DEGRADE = "link_degrade"
    NODE_PAUSE = "node_pause"
    NODE_RESUME = "node_resume"
    DROP = "drop"


#: Actions that require a ``link`` reference.
_LINK_ACTIONS = {FaultAction.LINK_DOWN, FaultAction.LINK_UP,
                 FaultAction.LINK_DEGRADE}
#: Actions that require a ``node`` reference.
_NODE_ACTIONS = {FaultAction.NODE_PAUSE, FaultAction.NODE_RESUME}


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault action.

    ``link`` names a directed endpoint pair ``(src, dst)``; ``node`` an
    NPU id.  ``probability`` (action ``drop``) sets the per-message drop
    probability of the link from that time on — with ``link`` omitted it
    applies to every link without its own rate.
    """

    time: float = number(ge=0)
    action: FaultAction = choice(FaultAction)
    link: Optional[Endpoints] = declare(Rule("list", item=Rule("int", ge=0)), None)
    node: Optional[int] = integer(None, ge=0)
    bandwidth_factor: float = number(1.0, gt=0, le=1)
    extra_latency_cycles: float = number(0.0, ge=0)
    probability: float = number(0.0, ge=0, le=1)

    def __post_init__(self) -> None:
        check(self)
        if self.action in _LINK_ACTIONS and self.link is None:
            raise ConfigError(f"{self.action.value} event needs a 'link' [src, dst]")
        if self.action in _NODE_ACTIONS and self.node is None:
            raise ConfigError(f"{self.action.value} event needs a 'node' id")
        if self.link is not None and (len(self.link) != 2 or self.link[0] == self.link[1]):
            raise ConfigError(
                f"fault link must be a [src, dst] pair of distinct NPUs, got {list(self.link)}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"time": self.time, "action": self.action.value}
        if self.link is not None:
            out["link"] = list(self.link)
        if self.node is not None:
            out["node"] = self.node
        if self.action is FaultAction.LINK_DEGRADE:
            out["bandwidth_factor"] = self.bandwidth_factor
            out["extra_latency_cycles"] = self.extra_latency_cycles
        if self.action is FaultAction.DROP:
            out["probability"] = self.probability
        return out


@dataclass(frozen=True)
class ScheduleDocument:
    """A fault-schedule JSON document: the ``--fault-schedule`` format."""

    seed: int = integer(0)
    events: tuple = declare(Rule("list", item=Rule("section", cls=FaultEvent)), ())


class FaultState:
    """Live fault state the network backends consult at injection time."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        #: Seeded RNG for probabilistic drops; consumed in injection order,
        #: so identical runs draw identical sequences (determinism).
        self.rng = random.Random(seed)
        self.down: set[Endpoints] = set()
        self.paused: set[int] = set()
        self.drop_probability: dict[Endpoints, float] = {}
        self.default_drop_probability = 0.0
        self.messages_dropped = 0
        self.drops_by_reason: dict[str, int] = {}

    def classify(self, src: int, dst: int,
                 path: list["Link"]) -> Optional[tuple[str, str]]:
        """Why a ``src`` -> ``dst`` message on ``path`` would be lost if
        injected now, as a ``(kind, reason)`` pair; ``None`` if healthy.

        ``kind`` is one of ``"node_paused"``, ``"link_down"``,
        ``"random_drop"`` — the reliable transport treats a paused endpoint
        as transient flow control rather than a path failure, so it must be
        able to tell the classes apart without parsing the prose.
        """
        if src in self.paused:
            return "node_paused", f"node {src} paused"
        if dst in self.paused:
            return "node_paused", f"node {dst} paused"
        for link in path:
            if (link.src, link.dst) in self.down:
                return "link_down", f"link {link.src}->{link.dst} down"
        if self.drop_probability or self.default_drop_probability > 0.0:
            for link in path:
                p = self.drop_probability.get(
                    (link.src, link.dst), self.default_drop_probability)
                if p > 0.0 and self.rng.random() < p:
                    return "random_drop", f"random drop on link {link.src}->{link.dst}"
        return None

    def record_drop(self, reason: str) -> None:
        self.messages_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def down_links_on(self, path: list["Link"]) -> list[Endpoints]:
        """The currently-down endpoint pairs crossed by ``path``."""
        return [(l.src, l.dst) for l in path if (l.src, l.dst) in self.down]

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable view of the live fault set.

        Feeds the watchdog's diagnostic bundle and
        :meth:`repro.system.sys_layer.System.diagnostics`;
        ``rng_fingerprint`` summarizes the drop-RNG position so two runs
        can be shown to have consumed the identical random sequence.
        """
        import hashlib

        return {
            "seed": self.seed,
            "down_links": sorted(list(pair) for pair in self.down),
            "paused_nodes": sorted(self.paused),
            "drop_probability": {
                f"{src}->{dst}": p
                for (src, dst), p in sorted(self.drop_probability.items())
            },
            "default_drop_probability": self.default_drop_probability,
            "messages_dropped": self.messages_dropped,
            "drops_by_reason": dict(sorted(self.drops_by_reason.items())),
            "rng_fingerprint": hashlib.sha256(
                repr(self.rng.getstate()).encode()).hexdigest()[:16],
        }


class FaultSchedule:
    """An ordered set of timed fault events, loadable from JSON.

    The document format (see ``docs/FAULTS.md``)::

        {"seed": 7,
         "events": [
            {"time": 50000,  "action": "link_down", "link": [1, 2]},
            {"time": 250000, "action": "link_up",   "link": [1, 2]},
            {"time": 0,      "action": "drop", "link": [2, 3],
             "probability": 0.02},
            {"time": 100000, "action": "link_degrade", "link": [3, 0],
             "bandwidth_factor": 0.5, "extra_latency_cycles": 100},
            {"time": 80000,  "action": "node_pause",  "node": 5},
            {"time": 120000, "action": "node_resume", "node": 5}]}
    """

    def __init__(self, events: list[FaultEvent], seed: int = 0):
        self.events = sorted(events, key=lambda e: e.time)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_dict(cls, data: Any) -> "FaultSchedule":
        """Build from a :class:`ScheduleDocument`; raises
        :class:`ConfigError` naming every field error."""
        doc = build(ScheduleDocument, data, "fault_schedule")
        return cls(list(doc.events), seed=doc.seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault-schedule JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FaultSchedule":
        try:
            with open(path) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read fault schedule {path}: {exc}") from exc
        return cls.from_json(text)

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    # -- installation -----------------------------------------------------------

    def install(self, fabric: "Fabric", events: "EventQueue") -> FaultState:
        """Validate against ``fabric`` and schedule every fault event.

        Returns the :class:`FaultState` the backends should consult (set it
        as ``backend.faults``).  Must be called before the simulation
        starts (event times are absolute cycles from t=0).
        """
        links_by_pair: dict[Endpoints, list["Link"]] = {}
        for link in fabric.links:
            links_by_pair.setdefault((link.src, link.dst), []).append(link)

        for event in self.events:
            if event.link is not None and event.link not in links_by_pair:
                raise NetworkError(
                    f"fault event at t={event.time} references link "
                    f"{event.link[0]}->{event.link[1]}, which does not exist "
                    f"in the fabric"
                )
            if event.node is not None and not 0 <= event.node < fabric.num_npus:
                raise NetworkError(
                    f"fault event at t={event.time} references node "
                    f"{event.node}, outside the fabric's {fabric.num_npus} NPUs"
                )

        state = FaultState(self.seed)
        for event in self.events:
            events.schedule_at(
                event.time, self._apply_callback(event, state, links_by_pair))
        return state

    def _apply_callback(self, event: FaultEvent, state: FaultState,
                        links_by_pair: dict[Endpoints, list["Link"]]):
        def apply() -> None:
            if event.action is FaultAction.LINK_DOWN:
                state.down.add(event.link)  # type: ignore[arg-type]
            elif event.action is FaultAction.LINK_UP:
                state.down.discard(event.link)  # type: ignore[arg-type]
            elif event.action is FaultAction.LINK_DEGRADE:
                for link in links_by_pair[event.link]:  # type: ignore[index]
                    degrade_link(link,
                                 bandwidth_factor=event.bandwidth_factor,
                                 extra_latency_cycles=event.extra_latency_cycles)
            elif event.action is FaultAction.NODE_PAUSE:
                state.paused.add(event.node)  # type: ignore[arg-type]
            elif event.action is FaultAction.NODE_RESUME:
                state.paused.discard(event.node)  # type: ignore[arg-type]
            elif event.action is FaultAction.DROP:
                if event.link is None:
                    state.default_drop_probability = event.probability
                else:
                    state.drop_probability[event.link] = event.probability

        return apply
