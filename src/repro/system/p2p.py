"""Point-to-point transfers through the system layer.

Pipeline parallelism exchanges activations between specific stage pairs
rather than through collectives; :class:`P2PTransfer` carries one such
payload, chunked like collective sets so consecutive transfers pipeline
on the links, routed by :class:`repro.network.routing.FabricRouter`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import NetworkError
from repro.network.api import NetworkBackend
from repro.network.routing import FabricRouter
from repro.system.collective_set import split_into_chunks

_transfer_ids = itertools.count()

TransferCallback = Callable[["P2PTransfer"], None]


@dataclass
class P2PTransfer:
    """One source-to-destination payload in flight."""

    src: int
    dst: int
    size_bytes: float
    name: str = ""
    transfer_id: int = field(default_factory=lambda: next(_transfer_ids))
    created_at: float = 0.0
    finished_at: Optional[float] = None
    chunks_done: int = 0
    num_chunks: int = 0
    _callbacks: list[TransferCallback] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.finished_at is not None

    @property
    def duration_cycles(self) -> float:
        if self.finished_at is None:
            raise NetworkError(f"transfer {self.transfer_id} not finished")
        return self.finished_at - self.created_at

    def on_complete(self, callback: TransferCallback) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _chunk_finished(self, now: float) -> None:
        self.chunks_done += 1
        if self.chunks_done == self.num_chunks:
            self.finished_at = now
            callbacks, self._callbacks = self._callbacks, []
            for callback in callbacks:
                callback(self)


class P2PEngine:
    """Issues chunked point-to-point transfers over routed paths."""

    def __init__(self, backend: NetworkBackend, router: FabricRouter,
                 preferred_splits: int = 4):
        self.backend = backend
        self.router = router
        self.preferred_splits = preferred_splits
        self.transfers: list[P2PTransfer] = []

    def send(self, src: int, dst: int, size_bytes: float,
             name: str = "") -> P2PTransfer:
        if src == dst:
            raise NetworkError(f"p2p src == dst == {src}")
        path = self.router.path(src, dst)
        chunks = split_into_chunks(size_bytes, self.preferred_splits)
        transfer = P2PTransfer(src=src, dst=dst, size_bytes=float(size_bytes),
                               name=name, num_chunks=len(chunks))
        transfer.created_at = self.backend.now
        self.transfers.append(transfer)
        for i, chunk in enumerate(chunks):
            self.backend.send(
                src, dst, chunk, path, (transfer.transfer_id, i),
                lambda _record, t=transfer: t._chunk_finished(self.backend.now),
            )
        return transfer
