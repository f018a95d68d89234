"""Discrete-event simulation engine (the paper's event-driven execution model)."""

from repro.events.engine import (
    CountdownBarrier,
    EventCallback,
    EventHandle,
    EventQueue,
)

__all__ = [
    "CountdownBarrier",
    "EventCallback",
    "EventHandle",
    "EventQueue",
]
