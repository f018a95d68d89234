"""Pin of what the harness platform builders build.

One sha256 over ``(spec.name, repr(spec.config), fabric.total_links(),
num_npus)`` of every platform below, in a fixed order:

* each builder's defaults on small shapes, 2x4x4 and 4x16, then a
  keyword grid over ``torus_platform`` and ``alltoall_platform`` that
  varies every argument around its default;
* the figure harnesses' builders: ``fig09._torus``/``_alltoall``,
  ``fig10._platform`` and ``fig12._platform`` over their shapes, and
  ``fig11._platform`` over its four link/algorithm settings.

``repr(spec.config)`` is run-cache key material, so a builder refactor
must leave it byte-identical, values a family never reads included.
Regenerate (only on purpose) with
``PYTHONPATH=src python tests/integration/test_platform_builder_pins.py``
and paste the printed pin below.
"""

import hashlib
import itertools

from repro.config.parameters import (
    AllToAllShape,
    CollectiveAlgorithm,
    SchedulingPolicy,
    TorusShape,
)

PINNED = {"count": 3189,
          "sha256": "0e8385b9fa31bd560684f0e5410ab1b718d88bbb673a1d137680ef7bd9853bc7"}

TORUS_GRID = {
    "shape": [TorusShape(2, 2, 2), TorusShape(1, 8, 1), TorusShape(4, 2, 1)],
    "algorithm": list(CollectiveAlgorithm),
    "symmetric": [False, True],
    "local_rings": [2, 1, 3],
    "horizontal_rings": [2, 1, 4],
    "vertical_rings": [2, 1],
    "scheduling_policy": list(SchedulingPolicy),
    "compute_scale": [1.0, 0.5],
    "preferred_set_splits": [16, 1],
}

ALLTOALL_GRID = {
    "shape": [AllToAllShape(1, 8), AllToAllShape(2, 4)],
    "algorithm": list(CollectiveAlgorithm),
    "symmetric": [False, True],
    "local_rings": [2, 1],
    "global_switches": [2, 1, 7],
    "preferred_set_splits": [16, 1],
    "scheduling_policy": list(SchedulingPolicy),
    "compute_scale": [1.0, 2.0],
}


def _grid(table: dict):
    names = list(table)
    for values in itertools.product(*table.values()):
        yield dict(zip(names, values))


def platform_specs():
    """Every platform the digest covers, in a fixed order."""
    from repro.harness import fig09, fig10, fig11, fig12
    from repro.harness.runners import alltoall_platform, torus_platform

    for shape in (*TORUS_GRID["shape"], TorusShape(2, 4, 4)):
        yield torus_platform(shape)
    for kwargs in _grid(TORUS_GRID):
        yield torus_platform(kwargs.pop("shape"), **kwargs)
    for shape in (*ALLTOALL_GRID["shape"], AllToAllShape(4, 16)):
        yield alltoall_platform(shape)
    for kwargs in _grid(ALLTOALL_GRID):
        yield alltoall_platform(kwargs.pop("shape"), **kwargs)
    yield fig09._torus()
    yield fig09._alltoall()
    for shape in fig10.SHAPES:
        yield fig10._platform(shape)
    for shape in fig12.SHAPES:
        yield fig12._platform(shape)
    for symmetric in (True, False):
        for algorithm in CollectiveAlgorithm:
            yield fig11._platform(symmetric, algorithm)


def platform_digest() -> dict:
    digest = hashlib.sha256()
    count = 0
    for spec in platform_specs():
        fabric = spec.topology_builder(spec.config.system).fabric
        digest.update(repr((spec.name, repr(spec.config), fabric.total_links(),
                            fabric.num_npus)).encode())
        count += 1
    return {"count": count, "sha256": digest.hexdigest()}


def test_builder_digest_matches_pin():
    assert platform_digest() == PINNED


if __name__ == "__main__":
    print(f"PINNED = {platform_digest()!r}")
