"""Ablation — dispatcher threshold T and batch P (Fig. 7).

The dispatcher issues P chunks from the ready queue whenever fewer than T
chunks remain in their first phase.  A starved configuration (T=1, P=1)
serializes chunk injection; the paper's setting (T=8, P=16) keeps the
pipeline full.  Expect the aggressive setting to be faster, with the
ready-queue delay (Queue P0) showing where the conservative setting
holds chunks back.
"""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import CollectiveAlgorithm, SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

from bench_common import print_table, run_once

SETTINGS = ((1, 1), (2, 4), (8, 16), (16, 32))


def time_with_dispatcher(threshold: int, batch: int):
    network = paper_network_config()
    system_cfg = SystemConfig(
        algorithm=CollectiveAlgorithm.ENHANCED,
        preferred_set_splits=32,
        dispatch_threshold=threshold,
        dispatch_batch=batch,
    )
    topo = build_torus_topology(TorusShape(4, 4, 4), network, system_cfg)
    system = System(topo, SimulationConfig(system=system_cfg, network=network))
    collective = system.request_collective(CollectiveOp.ALL_REDUCE, 8 * MB)
    system.run_until_idle(max_events=300_000_000)
    return collective.duration_cycles, system.breakdown.mean_ready_queue_delay


def run_sweep():
    rows = []
    for threshold, batch in SETTINGS:
        cycles, p0 = time_with_dispatcher(threshold, batch)
        rows.append({"T": threshold, "P": batch, "cycles": cycles,
                     "queue_P0": p0})
    return rows


def test_ablation_dispatcher_settings(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Ablation: dispatcher threshold/batch on 8MB all-reduce", rows)

    starved = rows[0]["cycles"]
    paper = rows[2]["cycles"]
    assert paper <= starved, "the paper's T=8/P=16 must not lose to T=1/P=1"
    assert rows[0]["queue_P0"] > rows[2]["queue_P0"], (
        "a starved dispatcher shows its held-back chunks as Queue P0 delay")
