"""Structure pins for the physical fabric builders.

Each case hashes everything the simulator reads from a built fabric:
``fabric.links`` in order (endpoints, kind and every ``LinkConfig``
field as ``float.hex``), then, per dimension in traversal order, every
group's channels (nodes, link indices, reverse partner, switch id).
Group keys are left out, so a key renaming does not move a pin.  Link
order is behaviour: fault injection samples from ``fabric.links`` and
the router's shortest-path tie-breaks follow link insertion order, so
the all-pairs route digests pin that too.
"""

import dataclasses
import hashlib

import pytest

from repro.config.parameters import AllToAllShape, SystemConfig, TorusShape
from repro.config.presets import DEFAULT_SCALEOUT_LINK, paper_network_config
from repro.dims import Dimension
from repro.network.channel import RingChannel, SwitchChannel
from repro.network.physical.fabric import Fabric, Ring
from repro.network.routing import FabricRouter
from repro.topology.auto_map import map_torus_onto_fabric
from repro.topology.logical import build_alltoall_topology, build_torus_topology

NET = paper_network_config()


def _hex(value):
    return None if value is None else float(value).hex()


def _link_record(link):
    config = link.config
    return (link.src, link.dst, link.kind,
            tuple(_hex(getattr(config, f.name))
                  for f in dataclasses.fields(config)))


def _channel_record(channel, index):
    if isinstance(channel, SwitchChannel):
        return ("switch", channel.switch_id, channel.nodes,
                [index[id(channel.uplinks[n])] for n in channel.nodes],
                [index[id(channel.downlinks[n])] for n in channel.nodes])
    if isinstance(channel, RingChannel):
        hops = [[index[id(link)]] for link in channel.links]
    else:
        hops = [[index[id(link)] for link in path]
                for path in channel.hop_paths]
    partner = getattr(channel, "reverse_channel", None)
    partner_first = None if partner is None else index[id(partner.links[0])]
    return ("ring", channel.nodes, hops, partner_first)


def structure_digest(fabric) -> str:
    index = {id(link): i for i, link in enumerate(fabric.links)}
    h = hashlib.sha256()
    for link in fabric.links:
        h.update(repr(_link_record(link)).encode())
    for dim in fabric.dimensions:
        h.update(dim.value.encode())
        for channels in fabric.groups(dim).values():
            h.update(b"|")
            for channel in channels:
                h.update(repr(_channel_record(channel, index)).encode())
    return h.hexdigest()


def route_digest(fabric) -> str:
    index = {id(link): i for i, link in enumerate(fabric.links)}
    router = FabricRouter(fabric)
    h = hashlib.sha256()
    for src in range(fabric.num_npus):
        for dst in range(fabric.num_npus):
            if src != dst:
                path = [index[id(link)] for link in router.path(src, dst)]
                h.update(repr((src, dst, path)).encode())
    return h.hexdigest()


def torus(shape, rings):
    local, horizontal, vertical = rings
    system = SystemConfig(local_rings=local, horizontal_rings=horizontal,
                          vertical_rings=vertical)
    return build_torus_topology(TorusShape(*shape), NET, system).fabric


def alltoall(shape, switches=2):
    system = SystemConfig(global_switches=switches)
    return build_alltoall_topology(AllToAllShape(*shape), NET, system).fabric


def four_rings(outer):
    """Two unidirectional local rings, then bidirectional 2x2 package
    rings, then ``outer``: the 4D and scale-out tori."""
    return Fabric([
        Ring(Dimension.LOCAL, 2, NET.local_link, rings=2,
             bidirectional=False, kind="local"),
        Ring(Dimension.VERTICAL, 2, NET.package_link),
        Ring(Dimension.HORIZONTAL, 2, NET.package_link),
        outer,
    ], NET)


def mapped_2x2x2_on_1x8x1():
    host = torus((1, 8, 1), (2, 2, 2))
    return map_torus_onto_fabric(TorusShape(2, 2, 2), host,
                                 rings_per_dim=2).fabric


CASES = {
    "torus-2x4x4-r222": lambda: torus((2, 4, 4), (2, 2, 2)),
    "torus-2x4x4-r321": lambda: torus((2, 4, 4), (3, 2, 1)),
    "torus-1x8x1-r222": lambda: torus((1, 8, 1), (2, 2, 2)),
    "torus-1x8x1-r321": lambda: torus((1, 8, 1), (3, 2, 1)),
    "torus-1x1x8-r222": lambda: torus((1, 1, 8), (2, 2, 2)),
    "torus-1x1x8-r321": lambda: torus((1, 1, 8), (3, 2, 1)),
    "torus-2x3x5-r222": lambda: torus((2, 3, 5), (2, 2, 2)),
    "torus-2x3x5-r321": lambda: torus((2, 3, 5), (3, 2, 1)),
    "torus-4x4x4-r222": lambda: torus((4, 4, 4), (2, 2, 2)),
    "torus-4x4x4-r321": lambda: torus((4, 4, 4), (3, 2, 1)),
    "alltoall-1x8-s7": lambda: alltoall((1, 8), switches=7),
    "alltoall-2x4": lambda: alltoall((2, 4)),
    "alltoall-4x16": lambda: alltoall((4, 16)),
    "4d-2x2x2x4": lambda: four_rings(
        Ring(Dimension.FOURTH, 4, NET.package_link)),
    "scaleout-2x2x2x4": lambda: four_rings(
        Ring(Dimension.SCALEOUT, 4, DEFAULT_SCALEOUT_LINK, kind="scaleout")),
    "mapped-2x2x2-on-1x8x1": mapped_2x2x2_on_1x8x1,
}

STRUCTURE_PINS = {
    "torus-2x4x4-r222":
        "50f5bc95c435f922beb10db505d52e3129c211cbc022528cd7e8a5d37173b421",
    "torus-2x4x4-r321":
        "9cd10748cbc670963044660fe5c479268aa5dab0ec6ae201f323aac8af280282",
    "torus-1x8x1-r222":
        "db97f38ad19642f15719270480a9f9f9854236f77509f5fea44bbcda61ab8cf7",
    "torus-1x8x1-r321":
        "db97f38ad19642f15719270480a9f9f9854236f77509f5fea44bbcda61ab8cf7",
    "torus-1x1x8-r222":
        "c228d9b0b4e9b94f3198657aee1122005b7c1383cf13a47c7773ea21251024b4",
    "torus-1x1x8-r321":
        "6ebd2ae279681e1e0513a60a0b9fb86cffa1bb0a3ec8e2db8fcf97007b44ce66",
    "torus-2x3x5-r222":
        "912355d6ef5a93d9b1cb893a2bc2cc9de8e899377fd8c1080a993ad4d35c8dff",
    "torus-2x3x5-r321":
        "b3e36940a73bebd8227a7652f8d4db600149ff214cb0d2ecec7b98bacd335da1",
    "torus-4x4x4-r222":
        "6228afee83eb15cfab723f97495586bd23c7e9635acaf8e3ba1982bc2d42ac00",
    "torus-4x4x4-r321":
        "60b37931074bed3287c5df44b0587699d8a788b29bc48e306e7263dd5d2384e2",
    "alltoall-1x8-s7":
        "55cd7db745475698f9413384155c3e260df90337ef1c3e4a8134b69201541699",
    "alltoall-2x4":
        "d1538e77400e0377b99c646d326de145faac965bb2e2aa98d12fc84cdcdf24b8",
    "alltoall-4x16":
        "79dfab3e8293da756161bbe384bc570ae5cb02f2d96423578d2b56b319fb7464",
    "4d-2x2x2x4":
        "ff9b0d95155b3e6afe2992bbb09f57e89a813dc5c96f935248c206d52c83941f",
    "scaleout-2x2x2x4":
        "6fdb35cac420fe215561c1de79c932a3e9f59b4ada453b5ed32852c848d9adf4",
    "mapped-2x2x2-on-1x8x1":
        "9692ac4b5be1fefb08b030dcae040e02f3f5b730f8d7214774692ae5979ca15a",
}

ROUTE_PINS = {
    "torus-2x4x4-r222":
        "639022f59451a449ca11e3779c21f4423af3f6407cd4e467698dac4270d08d8a",
    "alltoall-2x4":
        "fb6a9a351021830cd249d0e0349812f9a5cb1e18abdfc508071eb3b3fb505c32",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_structure_pin(case):
    assert structure_digest(CASES[case]()) == STRUCTURE_PINS[case]


@pytest.mark.parametrize("case", sorted(ROUTE_PINS))
def test_route_pin(case):
    assert route_digest(CASES[case]()) == ROUTE_PINS[case]
