"""Module -> layer map, and per-layer host time from a cProfile run.

The layers are the simulator's own modules (``src/repro``).  Every
module must be owned by exactly one layer; :func:`unmapped_modules`
lists the ones that are not, and the benchmark's tests fail on any.
At run time an unmapped module is charged to ``other`` with a warning,
so stray cost stays visible without stopping the benchmark.

Attribution rule: a function defined in ``src/repro`` charges its self
time to its module's layer.  Any other function (a C builtin, the
standard library, numpy, networkx, a dataclass-generated method) has no
layer of its own; its self time is split among its callers by the
pstats caller records, walking up until a ``src/repro`` caller is
found.  Time with no such caller (interpreter start-up, the benchmark's
own child code) goes to ``other``.  Every profiled second lands in
exactly one layer, so the shares sum to 1.
"""

from __future__ import annotations

import inspect
import os
import re
from typing import Iterable, Optional

#: Layers in report order.
LAYERS = (
    "events", "network.fast", "network.detailed", "network.common",
    "collectives", "stats", "system", "workload", "setup", "search",
    "parallel", "service", "cli", "other",
)

#: Ownership of every module under src/repro, as paths relative to it.
#: An entry ending in "/" owns a directory; any other entry is one file.
MODULE_LAYERS = (
    ("events/", "events"),
    ("network/fast_backend.py", "network.fast"),
    ("network/detailed/", "network.detailed"),
    ("network/__init__.py", "network.common"),
    ("network/api.py", "network.common"),
    ("network/link.py", "network.common"),
    ("network/channel.py", "network.common"),
    ("network/message.py", "network.common"),
    ("network/routing.py", "network.common"),
    ("network/faults.py", "network.common"),
    ("network/fault_schedule.py", "network.common"),
    ("network/physical/", "network.common"),
    ("collectives/", "collectives"),
    ("system/stats.py", "stats"),
    ("system/__init__.py", "system"),
    ("system/sys_layer.py", "system"),
    ("system/scheduler.py", "system"),
    ("system/collective_set.py", "system"),
    ("system/p2p.py", "system"),
    ("system/transport.py", "system"),
    ("workload/", "workload"),
    ("models/", "workload"),
    ("compute/", "workload"),
    ("topology/", "setup"),
    ("config/", "setup"),
    ("search/", "search"),
    ("parallel/", "parallel"),
    ("service/", "service"),
    ("cli.py", "cli"),
    ("__init__.py", "other"),
    ("dims.py", "other"),
    ("errors.py", "other"),
    ("analysis/", "other"),
    ("analytical/", "other"),
    ("harness/", "other"),
    ("profiling/", "other"),
    ("resilience/", "other"),
    ("sanitize/", "other"),
)

#: The PhaseStats methods live in collectives/context.py but are the
#: stats layer's per-message recording; their line range is read from
#: the source, not hard-coded.
_PHASE_STATS_FILE = "collectives/context.py"


def module_layer(relpath: str) -> Optional[str]:
    """The layer owning ``relpath`` (relative to src/repro), or None."""
    relpath = relpath.replace(os.sep, "/")
    for entry, layer in MODULE_LAYERS:
        if entry.endswith("/") and relpath.startswith(entry):
            return layer
        if relpath == entry:
            return layer
    return None


def repro_modules(package_root: str) -> list[str]:
    """Every .py file under ``package_root`` (src/repro), relative."""
    out = []
    for dirpath, dirnames, filenames in os.walk(package_root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                out.append(os.path.relpath(path, package_root).replace(os.sep, "/"))
    return out


def unmapped_modules(package_root: str) -> list[str]:
    return [m for m in repro_modules(package_root) if module_layer(m) is None]


def phase_stats_lines() -> range:
    """Source line range of :class:`repro.collectives.context.PhaseStats`."""
    from repro.collectives.context import PhaseStats

    lines, start = inspect.getsourcelines(PhaseStats)
    return range(start, start + len(lines))


class LayerMap:
    """Maps pstats function keys ``(filename, lineno, name)`` to layers."""

    def __init__(self, package_root: str):
        self.package_root = os.path.realpath(package_root)
        self.phase_stats = phase_stats_lines()
        #: Modules seen in a profile that no MODULE_LAYERS entry owns.
        self.unmapped: set[str] = set()

    def layer_of(self, func: tuple) -> Optional[str]:
        """The layer of a src/repro function, or None for any other code."""
        filename, lineno, _name = func
        if not filename.endswith(".py"):
            return None
        path = os.path.realpath(filename)
        if not path.startswith(self.package_root + os.sep):
            return None
        rel = os.path.relpath(path, self.package_root).replace(os.sep, "/")
        if rel == _PHASE_STATS_FILE and lineno in self.phase_stats:
            return "stats"
        layer = module_layer(rel)
        if layer is None:
            self.unmapped.add(rel)
            return "other"
        return layer


def _caller_weights(callers: dict, func: tuple, field: int) -> list[tuple[tuple, float]]:
    """Normalized caller weights from one pstats edge field (2 = self
    time, 3 = cumulative time), falling back to call counts."""
    edges = [(c, e) for c, e in callers.items() if c != func]
    for index in (field, 1):
        total = sum(e[index] for _, e in edges)
        if total > 0:
            return [(c, e[index] / total) for c, e in edges if e[index] > 0]
    return []


def attribute(stats: dict, layer_map: LayerMap) -> dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict.

    A non-repro function's responsibility vector is the absorption
    probability of a walk up its callers (weighted by the cumulative
    time of each caller edge) into a repro function's layer; the call
    graph has cycles (importlib, recursive encoders), so the vectors are
    solved by Gauss-Seidel iteration rather than recursion.
    """
    index = {layer: i for i, layer in enumerate(LAYERS)}
    other = index["other"]
    width = len(LAYERS)

    def onehot(i: int) -> list[float]:
        vec = [0.0] * width
        vec[i] = 1.0
        return vec

    layer_vec: dict[tuple, list[float]] = {}
    foreign = []
    for func in stats:
        layer = layer_map.layer_of(func)
        if layer is None:
            foreign.append(func)
        else:
            layer_vec[func] = onehot(index[layer])
    up = {f: _caller_weights(stats[f][4], f, 3) for f in foreign}
    resp = {f: [0.0] * width for f in foreign}

    def owner(func: tuple) -> list[float]:
        if func in layer_vec:
            return layer_vec[func]
        if func in resp:
            return resp[func]
        layer = layer_map.layer_of(func)  # a caller with no stats entry
        return layer_vec.setdefault(func, onehot(index[layer] if layer else other))

    for _ in range(500):
        change = 0.0
        for func in foreign:
            edges = up[func]
            new = [0.0] * width
            if not edges:
                new[other] = 1.0
            for caller, weight in edges:
                vec = owner(caller)
                for i in range(width):
                    new[i] += weight * vec[i]
            change = max(change, max(abs(a - b) for a, b in zip(new, resp[func])))
            resp[func] = new
        if change < 1e-12:
            break

    seconds = [0.0] * width
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        if func in layer_vec:
            shares = layer_vec[func]
        else:
            edges = _caller_weights(callers, func, 2)
            shares = [0.0] * width
            if not edges:
                shares[other] = 1.0
            for caller, weight in edges:
                vec = owner(caller)
                for i in range(width):
                    shares[i] += weight * vec[i]
        # Mass still cycling when the iteration stopped is charged to
        # "other" so the layers always account for every second.
        shares[other] += max(0.0, 1.0 - sum(shares))
        for i in range(width):
            seconds[i] += tt * shares[i]
    return dict(zip(LAYERS, seconds))


def call_counts(stats: dict, wanted: dict[str, tuple[str, str]]) -> dict[str, int]:
    """Call counts of named functions: ``{metric: (file suffix, qualname)}``.

    cProfile keys carry the code object's bare name, so the qualname's
    last component is matched within the file.
    """
    out = {metric: 0 for metric in wanted}
    for (filename, _lineno, name), (_cc, nc, _tt, _ct, _callers) in stats.items():
        for metric, (suffix, qualname) in wanted.items():
            if filename.replace(os.sep, "/").endswith(suffix) \
                    and name == qualname.rsplit(".", 1)[-1]:
                out[metric] += nc
    return out


_IMPORTTIME_RE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def import_times(lines: Iterable[str]) -> dict[str, float]:
    """Seconds from ``python -X importtime`` stderr.

    ``package_s``: cumulative import time of the top-level ``repro``
    imports; ``<name>_s``: cumulative time of the first import of the
    networkx and numpy packages (0 when never imported).
    """
    out = {"package_s": 0.0, "networkx_s": 0.0, "numpy_s": 0.0}
    for line in lines:
        match = _IMPORTTIME_RE.match(line.rstrip("\n"))
        if match is None:
            continue
        cumulative_us, indent, name = int(match.group(2)), match.group(3), match.group(4)
        depth = (len(indent) - 1) // 2
        if depth == 0 and (name == "repro" or name.startswith("repro.")):
            out["package_s"] += cumulative_us / 1e6
        for package in ("networkx", "numpy"):
            if name == package and out[f"{package}_s"] == 0.0:
                out[f"{package}_s"] = cumulative_us / 1e6
    return out
