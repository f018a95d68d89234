"""Tests for the Sec. III-E first-layer priority scheduling extension."""

from repro.collectives.types import CollectiveOp
from repro.config.parameters import SchedulingPolicy, SimulationConfig, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.config.units import MB
from repro.system.sys_layer import System
from repro.topology.logical import build_torus_topology

NET = paper_network_config()


def make_system(policy: SchedulingPolicy) -> System:
    system_cfg = SystemConfig(
        scheduling_policy=policy,
        preferred_set_splits=4,
        dispatch_threshold=1,
        dispatch_batch=1,
    )
    topo = build_torus_topology(TorusShape(2, 2, 2), NET, system_cfg)
    return System(topo, SimulationConfig(system=system_cfg, network=NET))


def completion_order(policy: SchedulingPolicy, layer_order=(5, 3, 0)) -> list[int]:
    """Issue collectives for layers in ``layer_order`` (backprop issues
    deep layers first) and return layer-id completion order."""
    sys_ = make_system(policy)
    done = []
    for layer in layer_order:
        c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB,
                                    layer_id=layer, name=f"layer{layer}")
        c.on_complete(lambda cc: done.append(cc.layer_id))
    sys_.run_until_idle(max_events=200_000_000)
    return done


class TestPriorityPolicy:
    def test_first_layer_finishes_first(self):
        """Sec. III-E: layer 0's gradients, issued last, must complete
        before later layers' collectives under the priority policy."""
        order = completion_order(SchedulingPolicy.PRIORITY)
        assert order[0] == 0

    def test_priority_orders_all_layers(self):
        order = completion_order(SchedulingPolicy.PRIORITY)
        assert order == [0, 3, 5]

    def test_fifo_completes_in_issue_order(self):
        assert completion_order(SchedulingPolicy.FIFO) == [5, 3, 0]

    def test_unlabelled_collectives_go_last(self):
        sys_ = make_system(SchedulingPolicy.PRIORITY)
        done = []
        anon = sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB,
                                       name="anon")
        anon.on_complete(lambda c: done.append("anon"))
        labelled = sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB,
                                           layer_id=9, name="layer9")
        labelled.on_complete(lambda c: done.append("layer9"))
        sys_.run_until_idle(max_events=200_000_000)
        assert done == ["layer9", "anon"]

    def test_priority_helps_first_layer_latency(self):
        """Layer 0's collective completes no later under PRIORITY than
        under FIFO when issued last."""
        def layer0_finish(policy):
            sys_ = make_system(policy)
            finish = {}
            for layer in (5, 3, 0):
                c = sys_.request_collective(CollectiveOp.ALL_REDUCE, 4 * MB,
                                            layer_id=layer)
                c.on_complete(lambda cc: finish.__setitem__(cc.layer_id,
                                                            cc.finished_at))
            sys_.run_until_idle(max_events=200_000_000)
            return finish[0]

        assert layer0_finish(SchedulingPolicy.PRIORITY) <= \
            layer0_finish(SchedulingPolicy.FIFO)
