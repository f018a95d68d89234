"""Closed-form collective cost models (alpha-beta style) and TCO pricing.

Used three ways: as fast first-order analysis (the "analytical results"
of Sec. V), as cross-checks on the simulator — simulated times must never
beat these lower bounds, and must approach them for large messages — and
as the dollar side of cost-weighted search objectives
(:mod:`repro.search.objectives`): link-count closed forms per topology
family, BW-class pricing, and the $/step amortization arithmetic.

All timing costs are in cycles for one chunk of ``size`` bytes on links
with ``bytes_per_cycle`` effective bandwidth and ``latency`` cycles per
hop; ``alpha`` folds in per-step fixed costs (endpoint delay etc.).
Dollar costs are capital expenditure; :func:`dollars_per_step` amortizes
them over a platform lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import CollectiveError, ConfigError


@dataclass(frozen=True)
class LinkParams:
    """Effective per-link timing used by the closed forms."""

    bytes_per_cycle: float
    latency_cycles: float
    endpoint_delay_cycles: float = 10.0

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise CollectiveError("bytes_per_cycle must be positive")
        if self.latency_cycles < 0 or self.endpoint_delay_cycles < 0:
            raise CollectiveError("latencies must be >= 0")

    @property
    def alpha(self) -> float:
        """Per-step fixed cost."""
        return self.latency_cycles + self.endpoint_delay_cycles


def ring_reduce_scatter_cycles(size: float, n: int, link: LinkParams,
                               reduction_cycles_per_kb: float = 0.0) -> float:
    """(N-1) steps of size/N messages plus per-step reduction."""
    _check(size, n)
    step = size / n / link.bytes_per_cycle + link.alpha
    reduce = reduction_cycles_per_kb * (size / n) / 1024.0
    return (n - 1) * (step + reduce)


def ring_all_gather_cycles(size: float, n: int, link: LinkParams) -> float:
    """(N-1) relay steps of size/N messages, no reduction."""
    _check(size, n)
    step = size / n / link.bytes_per_cycle + link.alpha
    return (n - 1) * step


def ring_all_reduce_cycles(size: float, n: int, link: LinkParams,
                           reduction_cycles_per_kb: float = 0.0) -> float:
    """Reduce-scatter followed by all-gather: 2(N-1) steps."""
    return (ring_reduce_scatter_cycles(size, n, link, reduction_cycles_per_kb)
            + ring_all_gather_cycles(size, n, link))


def ring_all_to_all_cycles(size: float, n: int, link: LinkParams) -> float:
    """Software-routed ring all-to-all lower bound.

    The binding resource is each node's single outgoing ring link: the
    node's own (N-1) messages plus the relay traffic passing through it —
    message to distance d occupies d links, so per-link traffic is
    ``(size/n) * n(n-1)/2 / n`` plus per-hop relay costs on the critical
    path (N-1 sequential hops for the farthest message).
    """
    _check(size, n)
    message = size / n
    per_link_bytes = message * (n - 1) / 2 * 1  # sum of distances / n links * n senders
    serialization = per_link_bytes * n / n / link.bytes_per_cycle
    critical_hops = (n - 1) * (link.alpha + message / link.bytes_per_cycle)
    return max(serialization, critical_hops)


def direct_reduce_scatter_cycles(size: float, n: int, link: LinkParams,
                                 parallel_links: int = 1,
                                 reduction_cycles_per_kb: float = 0.0) -> float:
    """One simultaneous step on the alltoall topology: each node pushes
    (N-1) messages of size/N through ``parallel_links`` uplinks and
    traverses two hops (uplink, downlink) through a switch."""
    _check(size, n)
    if parallel_links < 1:
        raise CollectiveError("parallel_links must be >= 1")
    message = size / n
    uplink_bytes = message * (n - 1) / min(parallel_links, n - 1)
    serialization = uplink_bytes / link.bytes_per_cycle
    reduce = reduction_cycles_per_kb * message / 1024.0
    return serialization + 2 * link.latency_cycles + link.endpoint_delay_cycles + reduce


def direct_all_reduce_cycles(size: float, n: int, link: LinkParams,
                             parallel_links: int = 1,
                             reduction_cycles_per_kb: float = 0.0) -> float:
    """Direct reduce-scatter + direct all-gather."""
    rs = direct_reduce_scatter_cycles(size, n, link, parallel_links,
                                      reduction_cycles_per_kb)
    ag = direct_reduce_scatter_cycles(size, n, link, parallel_links, 0.0)
    return rs + ag


def hierarchical_all_reduce_volume(dim_sizes: list[int], enhanced: bool) -> float:
    """Per-node traffic volume as a multiple of the initial data size N —
    the Sec. V-B arithmetic (e.g. 126/64 for 1x64x1 baseline, 28/8 for
    1x8x8, 36/8 for 4x4x4).

    Baseline all-reduces the full data on every dimension; the enhanced
    algorithm reduce-scatters on the first dimension, all-reduces 1/M on
    the rest, and all-gathers on the first.
    """
    active = [n for n in dim_sizes if n > 1]
    if not active:
        return 0.0
    if not enhanced or len(active) == 1:
        return sum(2.0 * (n - 1) / n for n in active)
    m = active[0]
    volume = (m - 1) / m  # local reduce-scatter
    volume += sum(2.0 * (n - 1) / n / m for n in active[1:])
    volume += (m - 1) / m  # local all-gather
    return volume


def bandwidth_lower_bound_cycles(op: str, size: float, n: int,
                                 bytes_per_cycle: float) -> float:
    """Topology-agnostic bandwidth floor for one collective.

    Any algorithm for the given collective must move at least this much
    data through each node's aggregate egress bandwidth
    (``bytes_per_cycle``, summed over every link the node drives):
    all-reduce moves ``2(N-1)/N`` of the payload per node, the
    single-pass collectives ``(N-1)/N``.  Latency terms are dropped, so
    this is a *floor*: simulated times must never beat it.  The search
    report uses it as a sanity check on every evaluated point
    (docs/SEARCH.md).
    """
    _check(size, n)
    if bytes_per_cycle <= 0:
        raise CollectiveError(f"bytes_per_cycle must be positive: {bytes_per_cycle}")
    per_node = size * (n - 1) / n
    if op == "allreduce":
        per_node *= 2.0
    elif op not in ("allgather", "reducescatter", "alltoall"):
        raise CollectiveError(f"no lower bound for collective {op!r}")
    return per_node / bytes_per_cycle


# -- platform cost / TCO ---------------------------------------------------------


@dataclass(frozen=True)
class LinkCounts:
    """Unidirectional link (and switch) inventory of one platform.

    The closed forms below count *logical channels*: a ring over ``d``
    nodes contributes ``d`` unidirectional links per ring instance, and
    an alltoall package fabric contributes one up/down link pair per NPU
    per global switch.
    """

    local: int
    package: int
    switches: int = 0

    @property
    def total_links(self) -> int:
        return self.local + self.package


def torus_link_counts(local: int, horizontal: int, vertical: int,
                      local_rings: int = 2, horizontal_rings: int = 2,
                      vertical_rings: int = 2) -> LinkCounts:
    """Link inventory of an ``MxNxK`` hierarchical torus.

    Matches the fabric the simulator builds
    (:func:`repro.topology.logical.build_torus_topology`): local rings are
    unidirectional — ``num_npus x local_rings`` links — while the
    horizontal and vertical dimensions use *bidirectional* rings, each
    yielding a CW and a CCW channel: ``num_npus x rings x 2`` links per
    active dimension.  Size-1 dimensions contribute nothing (there is no
    ring to build — the simulator ignores their ring counts too).
    """
    for name, value in (("local", local), ("horizontal", horizontal),
                        ("vertical", vertical)):
        if value < 1:
            raise ConfigError(f"torus {name} dimension must be >= 1, got {value}")
    for name, value in (("local_rings", local_rings),
                        ("horizontal_rings", horizontal_rings),
                        ("vertical_rings", vertical_rings)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    num_npus = local * horizontal * vertical
    local_links = num_npus * local_rings if local > 1 else 0
    package_links = 0
    if horizontal > 1:
        package_links += num_npus * horizontal_rings * 2
    if vertical > 1:
        package_links += num_npus * vertical_rings * 2
    return LinkCounts(local=local_links, package=package_links, switches=0)


def alltoall_link_counts(local: int, packages: int, local_rings: int = 2,
                         global_switches: int = 2) -> LinkCounts:
    """Link inventory of an ``MxN`` hierarchical alltoall.

    Local rings as in the torus; the package fabric gives every NPU one
    uplink per global switch (the Sec. V-A setup drives 7 switches from
    8 packages so each peer pair has a dedicated path).  The built fabric
    pairs each uplink with a downlink; ``package`` counts the pair once,
    as one switch port.
    """
    if local < 1:
        raise ConfigError(f"alltoall local dimension must be >= 1, got {local}")
    if packages < 2:
        raise ConfigError(f"alltoall needs at least 2 packages, got {packages}")
    if local_rings < 1 or global_switches < 1:
        raise ConfigError("local_rings and global_switches must be >= 1")
    num_npus = local * packages
    local_links = num_npus * local_rings if local > 1 else 0
    return LinkCounts(local=local_links, package=num_npus * global_switches,
                      switches=global_switches)


@dataclass(frozen=True)
class CostTable:
    """BW-class pricing for platform capital cost (TCO survey framing).

    Link prices are per GB/s of per-link bandwidth — a 200 GB/s local
    link at 2 $/GBps costs $400 — so re-partitioning bandwidth across
    more rings is cost-neutral only if per-link bandwidth shrinks
    accordingly; adding rings at full per-link bandwidth buys real
    hardware.  ``amortization_seconds`` spreads capex over a platform
    lifetime for the $/step framing (default three years).
    """

    local_link_dollars_per_gbps: float = 2.0
    package_link_dollars_per_gbps: float = 10.0
    switch_dollars: float = 5_000.0
    npu_dollars: float = 10_000.0
    amortization_seconds: float = 3 * 365 * 24 * 3600.0

    def __post_init__(self) -> None:
        for name in ("local_link_dollars_per_gbps",
                     "package_link_dollars_per_gbps", "switch_dollars",
                     "npu_dollars"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.amortization_seconds <= 0:
            raise ConfigError(
                f"amortization_seconds must be positive, got "
                f"{self.amortization_seconds}")

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: dict) -> "CostTable":
        unknown = sorted(set(data) - cls.field_names())
        if unknown:
            raise ConfigError(f"unknown cost-table keys: {unknown}")
        return cls(**data)


def link_dollars(counts: LinkCounts, local_bandwidth_gbps: float,
                 package_bandwidth_gbps: float,
                 table: CostTable) -> float:
    """Capital cost of the interconnect alone (links + switches)."""
    if local_bandwidth_gbps <= 0 or package_bandwidth_gbps <= 0:
        raise ConfigError("link bandwidths must be positive")
    return (counts.local * local_bandwidth_gbps * table.local_link_dollars_per_gbps
            + counts.package * package_bandwidth_gbps
            * table.package_link_dollars_per_gbps
            + counts.switches * table.switch_dollars)


def platform_dollars(counts: LinkCounts, num_npus: int,
                     local_bandwidth_gbps: float,
                     package_bandwidth_gbps: float,
                     table: CostTable) -> float:
    """Total platform capital cost: NPUs plus the interconnect."""
    if num_npus < 1:
        raise ConfigError(f"num_npus must be >= 1, got {num_npus}")
    return (num_npus * table.npu_dollars
            + link_dollars(counts, local_bandwidth_gbps,
                           package_bandwidth_gbps, table))


def dollars_per_step(capital_dollars: float, duration_cycles: float,
                     table: CostTable,
                     frequency_hz: float = 1e9) -> float:
    """Amortized dollar cost of one training step / collective.

    Capex spread uniformly over ``table.amortization_seconds`` of
    operation: a step occupying ``duration_cycles / frequency_hz``
    seconds of the platform costs that fraction of the lifetime budget.
    """
    if capital_dollars < 0:
        raise ConfigError(f"capital_dollars must be >= 0, got {capital_dollars}")
    if duration_cycles <= 0:
        raise ConfigError(f"duration_cycles must be positive, got {duration_cycles}")
    if frequency_hz <= 0:
        raise ConfigError(f"frequency_hz must be positive, got {frequency_hz}")
    step_seconds = duration_cycles / frequency_hz
    return capital_dollars * step_seconds / table.amortization_seconds


def perf_per_link_dollar(size_bytes: float, duration_cycles: float,
                         interconnect_dollars: float,
                         frequency_hz: float = 1e9) -> float:
    """Delivered collective bandwidth per interconnect dollar (GB/s/$).

    The TCO survey's perf-per-link-dollar metric: how much algorithmic
    bandwidth each dollar of links and switches buys.  NPU cost is
    deliberately excluded — this metric ranks *network* provisioning.
    """
    if size_bytes <= 0 or duration_cycles <= 0:
        raise ConfigError("size_bytes and duration_cycles must be positive")
    if interconnect_dollars <= 0:
        raise ConfigError(
            f"interconnect_dollars must be positive, got {interconnect_dollars}")
    gbps = size_bytes / (duration_cycles / frequency_hz) / 1e9
    return gbps / interconnect_dollars


def _check(size: float, n: int) -> None:
    if size <= 0:
        raise CollectiveError(f"size must be positive: {size}")
    if n < 2:
        raise CollectiveError(f"need >= 2 nodes, got {n}")
