"""Simulator parameter dataclasses.

These mirror the ASTRA-SIM input parameters of Table III and the system
parameters of Table IV in the paper.  Everything is validated eagerly at
construction so that a bad configuration fails before a long simulation
starts.  Each field's type, default, range and allowed values are
declared once, as a :mod:`repro.config.fields` rule; ``__post_init__``
checks them, and the linter and the service validate raw JSON documents
against the same declarations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.config.fields import (
    FieldError,
    check,
    choice,
    integer,
    number,
    section,
)
from repro.config.units import Clock, DEFAULT_CLOCK
from repro.errors import ConfigError


class CollectiveAlgorithm(enum.Enum):
    """Table III #3: the multi-phase collective composition.

    ``BASELINE`` runs a full collective on every dimension in turn (e.g.
    ring all-reduce per dimension).  ``ENHANCED`` exploits asymmetric
    bandwidth: reduce-scatter on the local dimension, all-reduce on the
    inter-package dimensions, all-gather on the local dimension
    (Sec. III-D).
    """

    BASELINE = "baseline"
    ENHANCED = "enhanced"


class SchedulingPolicy(enum.Enum):
    """Table III #7: the order collectives are taken from the ready queue.

    ``PRIORITY`` is the extension Sec. III-E motivates: "further
    prioritizing and completing the first layers' communication operations
    before communication operations from later layers even though they
    were issued earlier" — chunks of lower-numbered layers always go
    first (FIFO among equals).
    """

    LIFO = "LIFO"
    FIFO = "FIFO"
    PRIORITY = "PRIORITY"


class TopologyKind(enum.Enum):
    """Table III #8: the logical topology family."""

    TORUS = "Torus"
    ALLTOALL = "AllToAll"


class PacketRouting(enum.Enum):
    """Table III #14: software routing relays at intermediate endpoints;
    hardware routing forwards inside the fabric without NPU involvement."""

    SOFTWARE = "software"
    HARDWARE = "hardware"


class InjectionPolicy(enum.Enum):
    """Table III #15: how aggressively messages are injected with hardware
    routing (aggressive = all at once, normal = paced)."""

    AGGRESSIVE = "aggressive"
    NORMAL = "normal"


@dataclass(frozen=True)
class LinkConfig:
    """One class of physical link (intra-package or inter-package).

    Bandwidth is quoted in GB/s as in Table IV; ``efficiency`` is the
    data-flit / (data+header-flit) ratio (Table III #17/#18), and
    ``packet_size_bytes`` bounds network-layer packetization.
    """

    bandwidth_gbps: float = number(gt=0)
    latency_cycles: float = number(ge=0)
    packet_size_bytes: int = integer(ge=1)
    efficiency: float = number(0.94, gt=0, le=1)
    #: Table IV "Message size": collective payloads move as fixed-size
    #: network messages; each quantum pays ``quantum_overhead_cycles`` of
    #: messaging-unit processing at the receiving endpoint (Table IV
    #: "Endpoint delay"), which serializes with the link stream under the
    #: software-routed / on-load endpoint design of Sec. V.  ``None``
    #: disables per-quantum overheads (idealized link).
    message_quantum_bytes: Optional[int] = integer(512, ge=1, optional=True)
    quantum_overhead_cycles: float = number(10.0, ge=0)

    def __post_init__(self) -> None:
        check(self)

    def effective_bytes_per_cycle(self, clock: Clock = DEFAULT_CLOCK) -> float:
        """Usable payload bandwidth after header overhead (wire rate only;
        per-quantum endpoint processing is added by serialization_cycles)."""
        return clock.bandwidth_bytes_per_cycle(self.bandwidth_gbps) * self.efficiency

    def serialization_cycles(self, size_bytes: float, clock: Clock = DEFAULT_CLOCK) -> float:
        """Cycles to push ``size_bytes`` of payload through this link and
        its receiving messaging unit (per-quantum processing included)."""
        if size_bytes < 0:
            raise ConfigError(f"message size must be >= 0: {size_bytes}")
        wire = size_bytes / self.effective_bytes_per_cycle(clock)
        if self.message_quantum_bytes is None or size_bytes == 0:
            return wire
        quanta = -(-size_bytes // self.message_quantum_bytes)
        return wire + quanta * self.quantum_overhead_cycles

    def scaled(self, factor: float) -> "LinkConfig":
        """A copy with bandwidth multiplied by ``factor`` (asymmetry studies)."""
        if factor <= 0:
            raise ConfigError(f"bandwidth scale factor must be positive: {factor}")
        return replace(self, bandwidth_gbps=self.bandwidth_gbps * factor)


@dataclass(frozen=True)
class NetworkConfig:
    """Garnet-level parameters (Table III #17-#28) plus both link classes."""

    local_link: LinkConfig = section(LinkConfig)
    package_link: LinkConfig = section(LinkConfig)
    flit_width_bits: int = integer(1024, ge=1)
    router_latency_cycles: float = number(1.0, ge=0)
    vcs_per_vnet: int = integer(50, ge=1)
    buffers_per_vc: int = integer(5000, ge=1)
    switch_latency_cycles: float = number(1.0, ge=0)

    def __post_init__(self) -> None:
        check(self)

    @property
    def flit_width_bytes(self) -> int:
        return self.flit_width_bits // 8


@dataclass(frozen=True)
class TorusShape:
    """An M x N x K hierarchical torus (Sec. III-C terminology).

    ``local`` (M) counts NAMs per package on the intra-package rings;
    ``horizontal`` (N) and ``vertical`` (K) are inter-package ring sizes.
    A 1D ring of eight packages is ``TorusShape(1, 8, 1)``; the paper's
    headline asymmetric system is ``TorusShape(4, 4, 4)``.
    """

    local: int = integer(ge=1)
    horizontal: int = integer(ge=1)
    vertical: int = integer(ge=1)

    def __post_init__(self) -> None:
        check(self)

    @property
    def num_npus(self) -> int:
        return self.local * self.horizontal * self.vertical

    @property
    def num_packages(self) -> int:
        return self.horizontal * self.vertical

    def __str__(self) -> str:
        return f"{self.local}x{self.horizontal}x{self.vertical}"


@dataclass(frozen=True)
class AllToAllShape:
    """An M x N hierarchical alltoall: M NAMs per package, N packages
    fully connected through global switches (Sec. III-C)."""

    local: int = integer(ge=1)
    packages: int = integer(ge=2)

    def __post_init__(self) -> None:
        check(self)

    @property
    def num_npus(self) -> int:
        return self.local * self.packages

    def __str__(self) -> str:
        return f"{self.local}x{self.packages}"


#: Dimensions of each topology family's shape: MxNxK torus, MxN alltoall.
SHAPE_ARITY = {TopologyKind.TORUS: 3, TopologyKind.ALLTOALL: 2}


def check_arity(kind: TopologyKind, dims) -> None:
    """Raise a ``bad-shape`` :class:`FieldError` unless ``dims`` has the
    dimension count of a ``kind`` shape."""
    if len(dims) != SHAPE_ARITY[kind]:
        raise FieldError("bad-shape", f"{kind.value} shapes have "
                         f"{SHAPE_ARITY[kind]} dimensions, got {len(dims)} "
                         f"in {'x'.join(map(str, dims))}")


@dataclass(frozen=True)
class TransportConfig:
    """Reliable-transport knobs (see :mod:`repro.system.transport`).

    Per-message delivery timeout is ``timeout_cycles + timeout_per_byte *
    size_bytes``; retransmission backs off exponentially with seeded
    jitter.  Defaults are deliberately generous so that on a healthy
    network no timer ever fires before delivery and the simulated cycle
    counts are identical to a run without transport (asserted by
    ``benchmarks/bench_transport_overhead.py``).
    """

    timeout_cycles: float = number(50_000.0, gt=0)
    timeout_per_byte: float = number(4.0, ge=0)
    max_retries: int = integer(6, ge=0)
    backoff_base_cycles: float = number(1_000.0, ge=0)
    backoff_factor: float = number(2.0, ge=1)
    backoff_max_cycles: float = number(200_000.0, ge="backoff_base_cycles")
    jitter: float = number(0.1, ge=0, le=1)
    seed: int = integer(0)
    #: Attempts lost to a *paused* endpoint are flow control, not path
    #: failure: they retry with backoff but are not charged against
    #: ``max_retries``.  This valve bounds how long a sender waits out a
    #: pause before giving up anyway (a node that never resumes must not
    #: retransmit forever on watchdog-less runs).
    max_paused_waits: int = integer(1_000, ge=0)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class SystemConfig:
    """System-layer parameters (Table III #3-#16)."""

    topology: TopologyKind = choice(TopologyKind, TopologyKind.TORUS)
    algorithm: CollectiveAlgorithm = choice(CollectiveAlgorithm,
                                            CollectiveAlgorithm.BASELINE)
    scheduling_policy: SchedulingPolicy = choice(SchedulingPolicy,
                                                 SchedulingPolicy.LIFO)
    local_rings: int = integer(2, ge=1)
    vertical_rings: int = integer(2, ge=1)
    horizontal_rings: int = integer(2, ge=1)
    global_switches: int = integer(2, ge=1)
    endpoint_delay_cycles: float = number(10.0, ge=0)
    packet_routing: PacketRouting = choice(PacketRouting, PacketRouting.SOFTWARE)
    injection_policy: InjectionPolicy = choice(InjectionPolicy,
                                               InjectionPolicy.NORMAL)
    preferred_set_splits: int = integer(16, ge=1)
    #: Dispatcher threshold T: issue new chunks when in-flight first-phase
    #: chunks drop below this (Sec. IV-B / Fig. 7).
    dispatch_threshold: int = integer(8, ge=1)
    #: Dispatcher issue count P: how many chunks to issue at once.
    dispatch_batch: int = integer(16, ge=1)
    #: Average cycles to reduce 1 KB of received data (Fig. 8 "local update").
    reduction_cycles_per_kb: float = number(1.0, ge=0)
    #: Reliable transport (timeouts/retries); ``None`` sends raw —
    #: required for surviving fault schedules (docs/FAULTS.md).
    transport: Optional[TransportConfig] = section(TransportConfig, None)

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class ComputeConfig:
    """Parameters of the analytical NPU compute model (Sec. IV-A).

    The paper models a 256x256 TPU-like systolic array fed from HBM, with
    parameterized delays covering the non-GEMM parts of each layer and
    stalls from limited DRAM bandwidth.  ``compute_scale`` multiplies
    effective compute power for the Fig. 18 sensitivity study.
    """

    array_rows: int = integer(256, ge=1)
    array_cols: int = integer(256, ge=1)
    dram_bandwidth_gbps: float = number(3600.0, gt=0)
    non_gemm_overhead_cycles: float = number(1000.0, ge=0)
    compute_scale: float = number(1.0, gt=0)
    bytes_per_element: int = integer(4, ge=1)
    #: NPU core clock relative to the 1 GHz network clock: TPU-class
    #: accelerators run their MXU around 1-2 GHz, while all simulator
    #: timing is in network cycles.  Array cycles are divided by this.
    clock_ghz: float = number(2.0, gt=0)

    def __post_init__(self) -> None:
        check(self)

    def scaled(self, factor: float) -> "ComputeConfig":
        """A copy with ``compute_scale`` multiplied by ``factor``."""
        return replace(self, compute_scale=self.compute_scale * factor)


@dataclass(frozen=True)
class SimulationConfig:
    """The full bundle handed to a simulation run."""

    system: SystemConfig = section(SystemConfig, default_factory=SystemConfig)
    network: Optional[NetworkConfig] = section(NetworkConfig, None)
    compute: ComputeConfig = section(ComputeConfig, default_factory=ComputeConfig)
    clock: Clock = section(Clock, default_factory=Clock)
    num_passes: int = integer(1, ge=1)

    def __post_init__(self) -> None:
        check(self)
