"""Extension — pipeline parallelism bubble vs microbatch count.

Sec. III-A names pipelined parallelism among the core partitioning
strategies; this bench sweeps GPipe microbatching on an 8-stage ring and
checks the bubble fraction converges toward (S-1)/(M+S-1).
"""

from repro.config.parameters import SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import KB
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology
from repro.workload.pipeline import PipelineStage, PipelineTrainingLoop

from bench_common import print_table, run_once

MICROBATCHES = (2, 4, 8, 16, 32)
NUM_STAGES = 8


def run_point(num_microbatches: int):
    net = paper_network_config()
    cfg = SystemConfig(horizontal_rings=2)
    topo = build_torus_topology(TorusShape(1, 8, 1), net, cfg)
    system = System(topo, SimulationConfig(system=cfg, network=net))
    stages = [
        PipelineStage(i, i, 100_000.0 / num_microbatches,
                      200_000.0 / num_microbatches,
                      (512 * KB) / num_microbatches)
        for i in range(NUM_STAGES)
    ]
    return PipelineTrainingLoop(system, stages, num_microbatches).run(
        max_events=50_000_000)


def run_sweep():
    rows = []
    for m in MICROBATCHES:
        report = run_point(m)
        rows.append({
            "microbatches": m,
            "total_cycles": report.total_cycles,
            "bubble": report.bubble_fraction,
            "gpipe_ideal": report.ideal_bubble_fraction,
        })
    return rows


def test_ext_pipeline_bubble(benchmark):
    rows = run_once(benchmark, run_sweep)
    print_table("Extension: pipeline bubble vs microbatch count", rows)

    bubbles = [r["bubble"] for r in rows]
    assert bubbles == sorted(bubbles, reverse=True), (
        "more microbatches must shrink the bubble")
    last = rows[-1]
    assert last["bubble"] < last["gpipe_ideal"] + 0.15, (
        "measured bubble must approach the GPipe ideal")
    for row in rows:
        assert row["bubble"] >= row["gpipe_ideal"] - 0.02, (
            "the bubble cannot beat the GPipe bound")
