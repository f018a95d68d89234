"""Tests for the fabric router."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config.parameters import AllToAllShape, SystemConfig, TorusShape
from repro.config.presets import paper_network_config
from repro.errors import NetworkError
from repro.network.routing import FabricRouter
from repro.topology.logical import build_alltoall_topology, build_torus_topology

NET = paper_network_config()


class TestTorusRouting:
    def test_neighbour_is_one_hop(self):
        fabric = build_torus_topology(
            TorusShape(1, 8, 1), NET, SystemConfig(horizontal_rings=1)).fabric
        router = FabricRouter(fabric)
        assert router.hop_count(0, 1) == 1

    def test_bidirectional_rings_allow_short_way_round(self):
        fabric = build_torus_topology(
            TorusShape(1, 8, 1), NET, SystemConfig(horizontal_rings=1)).fabric
        router = FabricRouter(fabric)
        # 0 -> 7 is one hop backwards on the CCW ring, not 7 hops forward.
        assert router.hop_count(0, 7) == 1

    def test_paths_chain_correctly(self):
        fabric = build_torus_topology(TorusShape(2, 4, 4), NET).fabric
        router = FabricRouter(fabric)
        path = router.path(0, fabric.num_npus - 1)
        assert path[0].src == 0
        assert path[-1].dst == fabric.num_npus - 1
        for a, b in zip(path, path[1:]):
            assert a.dst == b.src

    def test_all_pairs_reachable(self):
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        router = FabricRouter(fabric)
        for src in range(8):
            for dst in range(8):
                if src != dst:
                    assert router.reachable(src, dst)

    def test_prefers_low_latency_local_links(self):
        """Within a package the 90-cycle local link beats any inter-package
        detour."""
        fabric = build_torus_topology(TorusShape(2, 2, 2), NET).fabric
        router = FabricRouter(fabric)
        intra = router.path(0, 1)  # same package (local coords 0/1)
        assert all(l.kind == "local" for l in intra)

    def test_diameter(self):
        fabric = build_torus_topology(
            TorusShape(1, 4, 1), NET, SystemConfig(horizontal_rings=1)).fabric
        router = FabricRouter(fabric)
        hops = [router.hop_count(s, d) for s in range(4) for d in range(4) if s != d]
        assert max(hops) == 2  # bidirectional 4-ring

    def test_self_path_rejected(self):
        router = FabricRouter(build_torus_topology(TorusShape(2, 2, 2), NET).fabric)
        with pytest.raises(NetworkError):
            router.path(3, 3)

    def test_unknown_node_rejected(self):
        router = FabricRouter(build_torus_topology(TorusShape(2, 2, 2), NET).fabric)
        with pytest.raises(NetworkError):
            router.path(0, 10_000)

    def test_path_caching_returns_same_object(self):
        router = FabricRouter(build_torus_topology(TorusShape(2, 2, 2), NET).fabric)
        assert router.path(0, 5) is router.path(0, 5)


class TestAllToAllRouting:
    def test_cross_package_goes_through_switch(self):
        fabric = build_alltoall_topology(AllToAllShape(2, 4), NET).fabric
        router = FabricRouter(fabric)
        path = router.path(0, fabric.npu_id((0, 2)))
        assert len(path) == 2  # uplink + downlink

    def test_intra_package_stays_local(self):
        fabric = build_alltoall_topology(AllToAllShape(2, 4), NET).fabric
        router = FabricRouter(fabric)
        path = router.path(fabric.npu_id((0, 1)), fabric.npu_id((1, 1)))
        assert all(l.kind == "local" for l in path)


#: Process machinery and supervision: only a run that fans points out to
#: worker processes, or supervises them, may import these.
PROCESS_MODULES = ("repro.parallel.supervisor", "multiprocessing", "concurrent.futures")

#: Modules a CLI ``collective`` on the fast backend never runs, so it must
#: not import them: the cold start is what a CLI user waits for.
COLLECTIVE_NEVER_IMPORTS = (
    "numpy",
    "networkx",
    "repro.network.detailed",
    "repro.network.fault_schedule",
    "repro.models",
    *(f"repro.harness.fig{n:02d}" for n in range(9, 19)),
    "repro.search",
    "repro.workload",
    "repro.profiling",
    "repro.harness.bandwidth_test",
    "repro.system.transport",
    "repro.system.p2p",
    "repro.network.routing",
    "pickle",
    *PROCESS_MODULES,
)

#: What only a run with a run cache (``--cache-dir``) needs.
CACHE_MODULES = ("repro.parallel.cache", "json")

#: A fast-backend 2x2x2 all-reduce through the CLI; ``{}`` takes global flags.
CLI_COLLECTIVE = ("from repro.cli import main\n"
                  "assert main([{}'collective', '--shape', '2x2x2', '--op', 'allreduce', "
                  "'--size-mb', '1']) == 0")


def _run_probe(code: str, expression: str):
    """The value of ``expression`` after a fresh interpreter runs ``code``.

    The value is printed as a literal, so the probe imports nothing of
    its own (``json`` included) before ``expression`` is evaluated."""
    probe = f"import sys\n{code}\nprint(repr({expression}))"
    done = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.splitlines()[-1])


def _modules_loaded_by(code: str, candidates) -> list[str]:
    """The ``candidates`` that a fresh interpreter running ``code`` imports."""
    return _run_probe(code, f"[m for m in {list(candidates)!r} if m in sys.modules]")


class TestLazyNetworkx:
    def test_cli_import_does_not_load_networkx(self):
        """Only FabricRouter needs networkx; a CLI collective must not pay
        for importing it."""
        code = ("import sys, repro.cli, repro.harness.runners; "
                "sys.exit('networkx' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0

    def test_cli_collective_imports_only_what_it_runs(self):
        code = CLI_COLLECTIVE.format("")
        assert _modules_loaded_by(code, COLLECTIVE_NEVER_IMPORTS + CACHE_MODULES) == []

    def test_cache_dir_loads_the_cache(self, tmp_path):
        """The cache modules load when a run has a cache: the probe above
        would see them."""
        code = CLI_COLLECTIVE.format(f"'--cache-dir', {str(tmp_path)!r}, ")
        assert _modules_loaded_by(code, CACHE_MODULES) == list(CACHE_MODULES)

    def test_bare_cli_import_loads_no_simulator(self):
        """``import repro.cli`` builds the parser only: no simulator layer
        and, of the collectives, only the op table."""
        loaded = _run_probe("import repro.cli", "sorted(sys.modules)")
        simulator = [m for m in loaded
                     if m.startswith(("repro.system", "repro.network", "repro.events"))
                     or (m.startswith("repro.collectives.") and m != "repro.collectives.types")]
        assert simulator == []
        assert "repro.collectives.types" in loaded

    def test_serial_search_imports_no_process_machinery(self, tmp_path):
        """A serial search runs every point in-process: no process pool,
        no supervisor."""
        space = Path(__file__).parents[2] / "examples" / "configs" / "search_fig09.json"
        code = ("from repro.cli import main\n"
                f"assert main(['--cache-dir', {str(tmp_path)!r}, 'search', '--space', "
                f"{str(space)!r}, '--budget', '8']) == 0")
        assert _modules_loaded_by(code, PROCESS_MODULES) == []

    def test_bare_import_does_not_load_numpy(self):
        assert _modules_loaded_by("import repro", ["numpy", "repro.network.detailed"]) == []

    def test_detailed_run_needs_no_numpy(self):
        """The flit-level backend runs where numpy cannot be imported."""
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from repro import CollectiveOp, DetailedBackend, TorusShape\n"
                "from repro.config.units import KB\n"
                "from repro.harness.runners import run_collective, torus_platform\n"
                "spec = torus_platform(TorusShape(2, 2, 2), preferred_set_splits=4)\n"
                "spec.backend_factory = lambda events, network, sanitizer: "
                "DetailedBackend(events, network, sanitizer=sanitizer)\n"
                "print(repr(run_collective(spec, CollectiveOp.ALL_REDUCE, 64 * KB)"
                ".duration_cycles))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout.split()[-1]) == 2601.3617021276464

    @pytest.mark.parametrize("setup, run", [
        ("from repro.harness.runners import run_training, torus_platform\n"
         "from repro.models.resnet50 import resnet50\n"
         "platform = torus_platform(TorusShape(2, 2, 2))\n"
         "model = resnet50(compute=platform.config.compute, minibatch=32)\n",
         "run_training(model, platform, num_iterations=1)"),
        ("from repro.collectives import CollectiveOp\n"
         "from repro.harness.runners import run_collective, torus_platform\n"
         "platform = torus_platform(TorusShape(2, 2, 2))\n",
         "run_collective(platform, CollectiveOp.ALL_REDUCE, 1 << 20)"),
    ], ids=["train", "collective"])
    def test_timed_run_imports_nothing(self, setup, run):
        """The e2e benchmark's train and collective setups (benchmarks/e2e)
        load every module the run they time needs: the run compiles none."""
        code = (f"from repro.config.parameters import TorusShape\n{setup}"
                f"before = set(sys.modules)\n{run}")
        new = "sorted(m for m in set(sys.modules) - before if m.startswith('repro'))"
        assert _run_probe(code, new) == []

    def test_every_exported_name_resolves(self):
        """Each package's ``__all__`` (lazy or eager) names real objects."""
        import pkgutil

        import repro

        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg]
        for package in packages:
            for name in getattr(package, "__all__", ()):
                assert getattr(package, name) is not None, (package.__name__, name)
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["DetailedBackend"].__module__ == "repro.network.detailed.backend"

    def test_unknown_top_level_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018
