"""Canonical configurations from the paper's evaluation (Table IV).

``paper_network_config`` reproduces the Table IV link parameters:

==================  ==========================
Intra-package       512 B packets, 200 GB/s, 90-cycle latency, 94% eff.
Inter-package       256 B packets, 25 GB/s, 200-cycle latency, 94% eff.
Flit width          1024 bits
Router latency      1 cycle
Endpoint delay      10 cycles
==================  ==========================

The symmetric variants (Sections V-A and V-B) use inter-package-class
links everywhere, which is what "links with same BW" means there.
"""

from __future__ import annotations

from repro.config.parameters import (
    CollectiveAlgorithm,
    ComputeConfig,
    LinkConfig,
    NetworkConfig,
    SchedulingPolicy,
    SimulationConfig,
    SystemConfig,
)

#: Table IV intra-package link: 200 GB/s, 90-cycle latency, 512 B packets.
PAPER_LOCAL_LINK = LinkConfig(
    bandwidth_gbps=200.0,
    latency_cycles=90.0,
    packet_size_bytes=512,
    efficiency=0.94,
)

#: Table IV inter-package link: 25 GB/s, 200-cycle latency, 256 B packets.
PAPER_PACKAGE_LINK = LinkConfig(
    bandwidth_gbps=25.0,
    latency_cycles=200.0,
    packet_size_bytes=256,
    efficiency=0.94,
)


#: A representative scale-out link (Sec. VII's planned Ethernet-class
#: extension): 12.5 GB/s (100 GbE), 2 us latency at 1 GHz, jumbo-frame
#: packets, typical protocol efficiency.
DEFAULT_SCALEOUT_LINK = LinkConfig(
    bandwidth_gbps=12.5,
    latency_cycles=2000.0,
    packet_size_bytes=4096,
    efficiency=0.90,
)


def paper_network_config(local_bandwidth_scale: float = 1.0) -> NetworkConfig:
    """The Table IV network parameters.

    ``local_bandwidth_scale`` rescales the intra-package link bandwidth
    relative to the paper's 200 GB/s (the Fig. 11 asymmetric system keeps
    the 8x local:package ratio; pass 0.125 for the symmetric variant,
    which equalizes local links to the 25 GB/s package links).
    """
    return NetworkConfig(
        local_link=PAPER_LOCAL_LINK.scaled(local_bandwidth_scale),
        package_link=PAPER_PACKAGE_LINK,
        flit_width_bits=1024,
        router_latency_cycles=1.0,
        vcs_per_vnet=50,
        buffers_per_vc=5000,
    )


def symmetric_network_config() -> NetworkConfig:
    """All links identical to the inter-package class (Sec. V-A/V-B)."""
    return NetworkConfig(
        local_link=PAPER_PACKAGE_LINK,
        package_link=PAPER_PACKAGE_LINK,
        flit_width_bits=1024,
        router_latency_cycles=1.0,
        vcs_per_vnet=50,
        buffers_per_vc=5000,
    )


def paper_system_config(
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE,
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.LIFO,
    preferred_set_splits: int = 16,
    local_rings: int = 2,
    horizontal_rings: int = 1,
    vertical_rings: int = 1,
    global_switches: int = 2,
) -> SystemConfig:
    """System-layer defaults used across Section V.

    Table IV lists two unidirectional local rings and two bidirectional
    inter-package rings — read as two across the package fabric, i.e. one
    bidirectional ring per inter-package dimension (the Fig. 11/12
    collective studies explicitly upgrade to "four bi-directional rings
    across packages" and pass ring counts themselves).  Endpoint delay is
    10 cycles; routing is software-based.  The dispatcher issues 16 chunks
    when fewer than 8 are in their first phase (Sec. V-F).
    """
    return SystemConfig(
        algorithm=algorithm,
        scheduling_policy=scheduling_policy,
        local_rings=local_rings,
        vertical_rings=vertical_rings,
        horizontal_rings=horizontal_rings,
        global_switches=global_switches,
        endpoint_delay_cycles=10.0,
        preferred_set_splits=preferred_set_splits,
        dispatch_threshold=8,
        dispatch_batch=16,
    )


def paper_compute_config(compute_scale: float = 1.0) -> ComputeConfig:
    """The 256x256 TPU-like systolic array of Sec. IV-A."""
    return ComputeConfig(
        array_rows=256,
        array_cols=256,
        dram_bandwidth_gbps=3600.0,
        compute_scale=compute_scale,
    )


def paper_simulation_config(
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.BASELINE,
    scheduling_policy: SchedulingPolicy = SchedulingPolicy.LIFO,
    local_bandwidth_scale: float = 1.0,
    compute_scale: float = 1.0,
    preferred_set_splits: int = 16,
) -> SimulationConfig:
    """One-stop bundle of the paper's Table IV defaults."""
    return SimulationConfig(
        system=paper_system_config(
            algorithm=algorithm,
            scheduling_policy=scheduling_policy,
            preferred_set_splits=preferred_set_splits,
        ),
        network=paper_network_config(local_bandwidth_scale=local_bandwidth_scale),
        compute=paper_compute_config(compute_scale=compute_scale),
    )
