"""Fault injection exercised on the detailed (flit-level) backend.

The fast-backend fault tests check analytical slowdowns; these verify the
degradation survives wormhole switching — slower serialization, longer
propagation, and credit flow control all still conserving every flit.
"""

import pytest

from repro.collectives.context import CollectiveContext
from repro.collectives.ring_algorithms import RingAllReduce
from repro.config.parameters import LinkConfig, NetworkConfig, TorusShape
from repro.config.presets import paper_simulation_config
from repro.errors import NetworkError
from repro.events.engine import EventQueue
from repro.network.channel import RingChannel
from repro.network.detailed.backend import DetailedBackend
from repro.network.faults import degrade_link, degrade_random_links, slowest_link_bandwidth
from repro.network.link import Link
from repro.sanitize.runtime import RuntimeSanitizer
from repro.topology.logical import build_torus_topology

IDEAL = LinkConfig(bandwidth_gbps=128.0, latency_cycles=50.0,
                   packet_size_bytes=512, efficiency=1.0,
                   message_quantum_bytes=None)
NET = NetworkConfig(local_link=IDEAL, package_link=IDEAL,
                    vcs_per_vnet=8, buffers_per_vc=64)


def run_ring_allreduce(n=4, size=16 * 1024, degrade=None, sanitize=False):
    """One ring all-reduce on the detailed backend; ``degrade`` may mutate
    the link list before the run."""
    sanitizer = RuntimeSanitizer() if sanitize else None
    events = (sanitizer.make_event_queue() if sanitizer is not None
              else EventQueue())
    links = [Link(i, (i + 1) % n, IDEAL) for i in range(n)]
    if degrade is not None:
        degrade(links)
    ring = RingChannel(list(range(n)), links)
    backend = DetailedBackend(events, NET, sanitizer=sanitizer)
    ctx = CollectiveContext(backend, reduction_cycles_per_kb=0.0)
    algo = RingAllReduce(ctx, ring, size)
    algo.start_all()
    events.run(max_events=5_000_000)
    assert algo.done
    if sanitizer is not None:
        sanitizer.verify_quiescent()
    return algo.finished_at


class TestDegradedLinksOnDetailedBackend:
    def test_degraded_bandwidth_slows_collective(self):
        healthy = run_ring_allreduce()
        degraded = run_ring_allreduce(
            degrade=lambda links: degrade_link(links[0], bandwidth_factor=0.25))
        assert degraded > healthy

    def test_extra_latency_slows_collective(self):
        healthy = run_ring_allreduce()
        lagged = run_ring_allreduce(
            degrade=lambda links: degrade_link(links[0],
                                               extra_latency_cycles=5000.0))
        assert lagged > healthy

    def test_deeper_degradation_costs_more(self):
        mild = run_ring_allreduce(
            degrade=lambda links: degrade_link(links[0], bandwidth_factor=0.5))
        severe = run_ring_allreduce(
            degrade=lambda links: degrade_link(links[0], bandwidth_factor=0.1))
        assert severe > mild

    def test_sanitizer_clean_under_degradation(self):
        """Conservation ledgers must balance even on a crippled link."""
        degraded = run_ring_allreduce(
            degrade=lambda links: degrade_link(links[0], bandwidth_factor=0.2,
                                               extra_latency_cycles=1000.0),
            sanitize=True)
        assert degraded > 0

    def test_single_message_sees_degraded_serialization(self):
        events = EventQueue()
        link = Link(0, 1, IDEAL)
        degrade_link(link, bandwidth_factor=0.5)
        backend = DetailedBackend(events, NET)
        done = []
        backend.send(0, 1, 8192.0, [link], "d",
                     lambda record: done.append(events.now))
        events.run()

        events2 = EventQueue()
        healthy = Link(0, 1, IDEAL)
        backend2 = DetailedBackend(events2, NET)
        done2 = []
        backend2.send(0, 1, 8192.0, [healthy], "h",
                      lambda record: done2.append(events2.now))
        events2.run()
        assert done[0] > done2[0]


class TestDegradeRandomLinksOnFabric:
    def test_degraded_fabric_run_is_sanitizer_clean(self):
        from repro.collectives.types import CollectiveOp
        from repro.system.sys_layer import System

        config = paper_simulation_config()
        topology = build_torus_topology(TorusShape(2, 2, 2), config.network,
                                        config.system)
        victims = degrade_random_links(topology.fabric, count=3,
                                       bandwidth_factor=0.5, seed=7)
        assert len(victims) == 3
        assert slowest_link_bandwidth(topology.fabric) < 25.0

        sanitizer = RuntimeSanitizer()
        system = System(topology, config, sanitizer=sanitizer)
        collective = system.request_collective(CollectiveOp.ALL_REDUCE,
                                               128 * 1024)
        system.run_until_idle(max_events=50_000_000)
        assert collective.done

    def test_kind_restriction(self):
        config = paper_simulation_config()
        topology = build_torus_topology(TorusShape(2, 2, 2), config.network,
                                        config.system)
        victims = degrade_random_links(topology.fabric, count=2,
                                       bandwidth_factor=0.5, seed=1,
                                       kind="package")
        assert all(v.kind == "package" for v in victims)

    def test_bad_factor_rejected(self):
        with pytest.raises(NetworkError):
            degrade_link(Link(0, 1, IDEAL), bandwidth_factor=1.5)

    def test_count_exceeding_links_rejected(self):
        config = paper_simulation_config()
        topology = build_torus_topology(TorusShape(1, 2, 1), config.network,
                                        config.system)
        with pytest.raises(NetworkError):
            degrade_random_links(topology.fabric, count=10_000,
                                 bandwidth_factor=0.5)
