"""Unit tests for ring and switch channels."""

import pytest

from repro.config.parameters import LinkConfig
from repro.errors import NetworkError, TopologyError
from repro.network.channel import RingChannel, SwitchChannel
from repro.network.link import Link
from repro.topology.mapping import map_ring_over_ring

CFG = LinkConfig(bandwidth_gbps=25.0, latency_cycles=200.0, packet_size_bytes=256)


def make_ring(nodes):
    links = [Link(nodes[i], nodes[(i + 1) % len(nodes)], CFG)
             for i in range(len(nodes))]
    return RingChannel(nodes, links)


def make_switch(switch_id, nodes):
    uplinks = {n: Link(n, switch_id, CFG) for n in nodes}
    downlinks = {n: Link(switch_id, n, CFG) for n in nodes}
    return SwitchChannel(switch_id, nodes, uplinks, downlinks)


class TestRingChannel:
    def test_neighbours(self):
        ring = make_ring([10, 20, 30, 40])
        assert ring.next_node(10) == 20
        assert ring.next_node(40) == 10
        assert ring.prev_node(10) == 40

    def test_node_at_distance(self):
        ring = make_ring([0, 1, 2, 3])
        assert ring.node_at_distance(1, 2) == 3
        assert ring.node_at_distance(3, 2) == 1

    def test_path_single_hop(self):
        ring = make_ring([0, 1, 2, 3])
        path = ring.path(1, 2)
        assert len(path) == 1
        assert path[0].src == 1 and path[0].dst == 2

    def test_path_wraps(self):
        ring = make_ring([0, 1, 2, 3])
        path = ring.path(3, 1)
        assert [(l.src, l.dst) for l in path] == [(3, 0), (0, 1)]

    def test_link_from(self):
        ring = make_ring([0, 1, 2])
        assert ring.link_from(2).dst == 0

    def test_path_rejects_self(self):
        with pytest.raises(NetworkError):
            make_ring([0, 1]).path(0, 0)

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            make_ring([0, 1]).position(99)

    def test_requires_two_nodes(self):
        with pytest.raises(TopologyError):
            RingChannel([0], [])

    def test_rejects_duplicate_nodes(self):
        links = [Link(0, 1, CFG), Link(1, 0, CFG), Link(0, 1, CFG)]
        with pytest.raises(TopologyError):
            RingChannel([0, 1, 0], links)

    def test_rejects_wrong_link_wiring(self):
        links = [Link(0, 2, CFG), Link(1, 0, CFG)]
        with pytest.raises(TopologyError):
            RingChannel([0, 1], links)

    def test_rejects_wrong_link_count(self):
        links = [Link(0, 1, CFG)]
        with pytest.raises(TopologyError):
            RingChannel([0, 1], links)

    def test_two_node_ring(self):
        ring = make_ring([5, 7])
        assert ring.next_node(5) == 7
        assert ring.next_node(7) == 5


def make_mapped_ring(nodes, physical_size):
    return map_ring_over_ring(nodes, make_ring(list(range(physical_size))))


@pytest.mark.parametrize("ring", [
    pytest.param(make_ring([10, 20, 30, 40]), id="ring"),
    pytest.param(make_mapped_ring([0, 2, 4, 6], 8), id="mapped"),
])
class TestHopTable:
    def test_neighbour_path_is_one_list_object(self, ring):
        """The fast backend memoises route validation by list identity,
        so a neighbour route must come back as the very same list."""
        for node in ring.nodes:
            path = ring.path(node, ring.next_node(node))
            assert ring.path(node, ring.next_node(node)) is path
            assert path is ring.hops[node][2]
            assert path[0].src == node and path[-1].dst == ring.next_node(node)

    def test_multi_hop_path_is_cached(self, ring):
        src, dst = ring.nodes[0], ring.nodes[2]
        assert ring.path(src, dst) is ring.path(src, dst)
        assert ring.path(src, dst) == ring.hop_path(src) + ring.hop_path(ring.nodes[1])

    def test_table_matches_lookups(self, ring):
        for i, node in enumerate(ring.nodes):
            position, successor, _path = ring.hops[node]
            assert position == ring.position(node) == i
            assert successor == ring.next_node(node) == ring.nodes[(i + 1) % ring.size]

    @pytest.mark.parametrize("lookup", [
        lambda ring, node: ring.position(node),
        lambda ring, node: ring.next_node(node),
        lambda ring, node: ring.path(node, ring.nodes[0]),
        lambda ring, node: ring.path(ring.nodes[0], node),
    ])
    def test_node_not_on_ring_rejected(self, ring, lookup):
        with pytest.raises(TopologyError):
            lookup(ring, 99)

    def test_path_rejects_self(self, ring):
        with pytest.raises(NetworkError):
            ring.path(ring.nodes[1], ring.nodes[1])


class TestSwitchChannel:
    def test_path_goes_through_switch(self):
        switch = make_switch(100, [0, 1, 2])
        path = switch.path(0, 2)
        assert [(l.src, l.dst) for l in path] == [(0, 100), (100, 2)]

    def test_path_rejects_self(self):
        with pytest.raises(NetworkError):
            make_switch(100, [0, 1]).path(1, 1)

    def test_unattached_node_rejected(self):
        with pytest.raises(TopologyError):
            make_switch(100, [0, 1]).path(0, 9)

    def test_requires_two_nodes(self):
        with pytest.raises(TopologyError):
            make_switch(100, [0])

    def test_missing_links_detected(self):
        uplinks = {0: Link(0, 100, CFG)}
        downlinks = {0: Link(100, 0, CFG), 1: Link(100, 1, CFG)}
        with pytest.raises(TopologyError):
            SwitchChannel(100, [0, 1], uplinks, downlinks)

    def test_bad_uplink_wiring_detected(self):
        uplinks = {0: Link(0, 99, CFG), 1: Link(1, 100, CFG)}
        downlinks = {0: Link(100, 0, CFG), 1: Link(100, 1, CFG)}
        with pytest.raises(TopologyError):
            SwitchChannel(100, [0, 1], uplinks, downlinks)
