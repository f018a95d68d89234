"""Declarative, JSON-loadable design spaces for `astra-repro search`.

A :class:`SearchSpace` spans the paper's Fig. 1 co-design axes — topology
family and shape, bandwidth partitioning (ring/switch counts, symmetric
links), collective algorithm, scheduler policy and chunk count — as a
cross product of named *axes*, each a finite ordered list of values.  A
candidate is a *genome*: one index per axis, in :data:`AXIS_NAMES` order.
Genomes decode to frozen :class:`SearchPoint` records: design points
(:class:`~repro.config.parameters.DesignPoint`, the ``chunks`` axis
setting ``preferred_set_splits``) whose bound ``platform_spec`` builds
the platform and stays picklable for process pools.

Not every gene matters for every point — a torus genome's
``alltoall_shape`` and ``global_switches`` genes are dead, as are ring
counts on size-1 dimensions.  :meth:`SearchSpace.canonical` zeroes dead
genes so that equivalent genomes collapse to one evaluated point and
revisits are free.

Every field of a space document is declared once, as a
:mod:`repro.config.fields` table (:class:`SpaceDocument`, :class:`Axes`,
:class:`Constraints` and :class:`~repro.analytical.cost_models.CostTable`);
each axis checks its values against the rule of the field it sweeps
(``chunks`` against ``SystemConfig.preferred_set_splits``).
:func:`repro.sanitize.static_lint.lint_search_space` reports the table's findings
with parameter paths, and :meth:`SearchSpace.from_dict` raises on the
same findings; construction then rejects what no single field can
express (shapes whose NPU count differs from ``num_npus``, a topology
with no matching shape).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from repro.analytical.cost_models import (
    CostTable,
    LinkCounts,
    alltoall_link_counts,
    platform_dollars,
    torus_link_counts,
)
from repro.collectives.types import COLLECTIVE_OPS, CollectiveOp
from repro.config.fields import Rule, build, choice, declare, integer, number, rules, section
from repro.config.parameters import (
    SHAPE_ARITY,
    AllToAllShape,
    DesignPoint,
    SystemConfig,
    TopologyKind,
    TorusShape,
)
from repro.config.presets import PAPER_LOCAL_LINK, PAPER_PACKAGE_LINK
from repro.config.units import MB
from repro.errors import ConfigError


def _sweeps(rule: Rule, default: Optional[tuple] = None):
    """A search axis: a non-empty list of values each obeying ``rule``.
    An omitted axis sweeps ``default``, or a range derived from
    ``num_npus`` when that is ``None``."""
    return declare(Rule("axis", item=rule), default)


_SYSTEM = rules(SystemConfig)
_POINT = rules(DesignPoint)


@dataclass(frozen=True)
class Axes:
    """The ``axes`` section, in genome order.  Each axis lists the values
    it sweeps, checked against the rule of the field it sets."""

    topology: Optional[tuple] = _sweeps(_POINT["topology"])
    torus_shape: Optional[tuple] = _sweeps(
        Rule("shape", arity=SHAPE_ARITY[TopologyKind.TORUS]))
    alltoall_shape: Optional[tuple] = _sweeps(
        Rule("shape", arity=SHAPE_ARITY[TopologyKind.ALLTOALL]))
    algorithm: tuple = _sweeps(_SYSTEM["algorithm"], _SYSTEM["algorithm"].options)
    scheduling_policy: tuple = _sweeps(_SYSTEM["scheduling_policy"],
                                       _SYSTEM["scheduling_policy"].options)
    chunks: tuple = _sweeps(_SYSTEM["preferred_set_splits"], (1, 4, 16))
    local_rings: tuple = _sweeps(_SYSTEM["local_rings"], (1, 2))
    horizontal_rings: tuple = _sweeps(_SYSTEM["horizontal_rings"], (1, 2))
    vertical_rings: tuple = _sweeps(_SYSTEM["vertical_rings"], (1, 2))
    global_switches: tuple = _sweeps(_SYSTEM["global_switches"], (1, 2, 4))
    symmetric: tuple = _sweeps(Rule("bool"), (False, True))


@dataclass(frozen=True)
class Constraints:
    """The optional ``constraints`` section."""

    max_links_per_npu: Optional[int] = integer(None, ge=1)
    max_platform_dollars: Optional[float] = number(None, gt=0)


@dataclass(frozen=True)
class SpaceDocument:
    """A search-space JSON document (docs/SEARCH.md)."""

    num_npus: int = integer(ge=2)
    name: Optional[str] = declare(Rule("text"), None)
    collective: CollectiveOp = choice(COLLECTIVE_OPS, CollectiveOp.ALL_REDUCE)
    size_bytes: float = number(4 * MB, gt=0)
    axes: Axes = section(Axes, default_factory=Axes)
    constraints: Optional[Constraints] = section(Constraints, None)
    cost: Optional[CostTable] = section(CostTable, None)


#: Axis names in genome order.  A genome is one index per axis.
AXIS_NAMES = tuple(f.name for f in fields(Axes))

#: How many feasibility-rejected samples :meth:`random_point` tolerates
#: before concluding the constraints admit no point at all.
_SAMPLE_RETRIES = 2000


class SearchPoint(DesignPoint):
    """One decoded design point, with its link inventory and price."""

    @property
    def num_npus(self) -> int:
        return math.prod(self.shape)

    @property
    def label(self) -> str:
        if self.topology is TopologyKind.TORUS:
            links = f"r{self.local_rings}.{self.horizontal_rings}.{self.vertical_rings}"
        else:
            links = f"r{self.local_rings}/s{self.global_switches}"
        return (f"{self.topology.value.lower()}-{'x'.join(map(str, self.shape))}"
                f"/{self.algorithm.value}/{self.scheduling_policy.value}"
                f"/c{self.preferred_set_splits}/{links}{'/sym' if self.symmetric else ''}")

    def link_counts(self) -> LinkCounts:
        """Link inventory via the closed forms in
        :mod:`repro.analytical.cost_models`."""
        if self.topology is TopologyKind.TORUS:
            return torus_link_counts(
                *self.shape,
                local_rings=self.local_rings,
                horizontal_rings=self.horizontal_rings,
                vertical_rings=self.vertical_rings,
            )
        return alltoall_link_counts(
            *self.shape,
            local_rings=self.local_rings,
            global_switches=self.global_switches,
        )

    def bandwidths_gbps(self) -> tuple[float, float]:
        """(local, package) per-link bandwidth in GB/s for this point —
        the Table IV classes, equalized under ``symmetric``."""
        local = (PAPER_PACKAGE_LINK if self.symmetric else PAPER_LOCAL_LINK)
        return local.bandwidth_gbps, PAPER_PACKAGE_LINK.bandwidth_gbps

    def dollars(self, table: CostTable) -> float:
        """Platform capital cost under ``table`` (NPUs + interconnect)."""
        local_gbps, package_gbps = self.bandwidths_gbps()
        return platform_dollars(self.link_counts(), self.num_npus,
                                local_gbps, package_gbps, table)


def _factorizations(n: int, dims: int) -> list[tuple[int, ...]]:
    """All ordered ``dims``-tuples of ints >= 1 whose product is ``n``."""
    if dims == 1:
        return [(n,)]
    out = []
    for first in range(1, n + 1):
        if n % first == 0:
            out.extend((first, *rest) for rest in _factorizations(n // first, dims - 1))
    return out


class SearchSpace:
    """A validated cross product of design axes plus the workload point
    (one collective at one payload size) candidates are judged on."""

    def __init__(self, name: str, num_npus: int, collective: CollectiveOp,
                 size_bytes: float, axes: dict[str, tuple],
                 constraints: Optional[Constraints] = None,
                 cost_table: Optional[CostTable] = None,
                 source: str = ""):
        self.name = name
        self.num_npus = num_npus
        self.collective = collective
        self.size_bytes = float(size_bytes)
        self.axes = {axis: tuple(axes[axis]) for axis in AXIS_NAMES}
        #: Gene range per axis, in genome order (an empty axis has one gene).
        self._sizes = tuple(max(1, len(self.axes[axis])) for axis in AXIS_NAMES)
        self.constraints = constraints if constraints is not None else Constraints()
        self.cost_table = cost_table if cost_table is not None else CostTable()
        self.source = source
        #: Canonical genome → feasibility: equivalent genomes share one
        #: decode and one constraint check.
        self._feasible: dict[tuple[int, ...], bool] = {}
        self._validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, source: str = "") -> "SearchSpace":
        """Build from a space document; raises :class:`ConfigError` on
        the findings :func:`repro.sanitize.static_lint.lint_search_space` reports."""
        doc = build(SpaceDocument, data)
        alltoall_shapes = tuple(s for s in _factorizations(doc.num_npus, 2) if s[1] >= 2)
        derived = {  # the default ranges that depend on num_npus
            "topology": (_POINT["topology"].options if alltoall_shapes
                         else (TopologyKind.TORUS,)),
            "torus_shape": tuple(_factorizations(doc.num_npus, 3)),
            "alltoall_shape": alltoall_shapes,
        }
        given = {axis: values for axis, values in asdict(doc.axes).items()
                 if values is not None}
        return cls(
            name=doc.name if doc.name is not None else source or "search-space",
            num_npus=doc.num_npus,
            collective=doc.collective,
            size_bytes=doc.size_bytes,
            axes={**derived, **given},
            constraints=doc.constraints,
            cost_table=doc.cost,
            source=source,
        )

    @classmethod
    def from_file(cls, path: str) -> "SearchSpace":
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read search space: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"search space {path}: invalid JSON: {exc}") from None
        return cls.from_dict(data, source=str(path))

    def _validate(self) -> None:
        """Cross-field rules: every shape has ``num_npus`` NPUs and is a
        valid torus or alltoall shape, and each topology has a shape."""
        for name, shape_cls in (("torus_shape", TorusShape),
                                ("alltoall_shape", AllToAllShape)):
            for dims in self.axes[name]:
                shape_cls(*dims)
                if math.prod(dims) != self.num_npus:
                    raise ConfigError(
                        f"{name}: shape {'x'.join(map(str, dims))} yields "
                        f"{math.prod(dims)} NPUs, space declares "
                        f"num_npus={self.num_npus}")
        for topology, name in ((TopologyKind.TORUS, "torus_shape"),
                               (TopologyKind.ALLTOALL, "alltoall_shape")):
            if topology in self.axes["topology"] and not self.axes[name]:
                raise ConfigError(
                    f"topology axis includes {topology.value!r} but no {name} "
                    f"matches num_npus={self.num_npus}")

    # -- genomes -------------------------------------------------------------

    def num_genomes(self) -> int:
        """Size of the raw cross product (counts equivalent genomes)."""
        return math.prod(self._sizes)

    def _check_genome(self, genome: Sequence[int]) -> None:
        if len(genome) != len(AXIS_NAMES):
            raise ConfigError(
                f"genome must have {len(AXIS_NAMES)} genes, got {len(genome)}")
        for axis, gene, size in zip(AXIS_NAMES, genome, self._sizes):
            if not 0 <= gene < size:
                raise ConfigError(
                    f"gene for axis {axis!r} out of range: {gene} not in "
                    f"[0, {size})")

    def decode(self, genome: Sequence[int]) -> SearchPoint:
        """The design point a genome denotes."""
        self._check_genome(genome)
        genes = dict(zip(AXIS_NAMES, genome))

        def value(axis: str):
            return self.axes[axis][genes[axis]]

        topology = value("topology")
        return SearchPoint(
            topology=topology,
            shape=value("torus_shape" if topology is TopologyKind.TORUS
                        else "alltoall_shape"),
            algorithm=value("algorithm"),
            scheduling_policy=value("scheduling_policy"),
            preferred_set_splits=value("chunks"),
            local_rings=value("local_rings"),
            horizontal_rings=value("horizontal_rings"),
            vertical_rings=value("vertical_rings"),
            global_switches=value("global_switches"),
            symmetric=value("symmetric"),
        )

    def canonical(self, genome: Sequence[int]) -> tuple[int, ...]:
        """Zero out dead genes so equivalent genomes compare equal.

        A torus point ignores ``alltoall_shape`` and ``global_switches``;
        an alltoall point ignores ``torus_shape`` and the horizontal and
        vertical ring counts; ring counts on size-1 dimensions are dead
        for both (verified no-ops in the simulator).
        """
        self._check_genome(genome)
        genes = dict(zip(AXIS_NAMES, genome))
        topology = self.axes["topology"][genes["topology"]]
        if topology is TopologyKind.TORUS:
            shape = self.axes["torus_shape"][genes["torus_shape"]]
            genes["alltoall_shape"] = 0
            genes["global_switches"] = 0
            if shape[0] == 1:
                genes["local_rings"] = 0
            if shape[1] == 1:
                genes["horizontal_rings"] = 0
            if shape[2] == 1:
                genes["vertical_rings"] = 0
        else:
            shape = self.axes["alltoall_shape"][genes["alltoall_shape"]]
            genes["torus_shape"] = 0
            genes["horizontal_rings"] = 0
            genes["vertical_rings"] = 0
            if shape[0] == 1:
                genes["local_rings"] = 0
        return tuple(genes[axis] for axis in AXIS_NAMES)

    # -- feasibility ---------------------------------------------------------

    def is_feasible(self, genome: Sequence[int]) -> bool:
        """Whether the decoded point passes the space's constraints.

        Infeasible-by-construction points (shape/NPU mismatches, bad
        enum values) are rejected at load time; this checks the
        cross-axis constraints a single axis cannot express.  Dead genes
        never reach them (``link_counts`` ignores what ``canonical``
        zeroes), so the answer is memoized per canonical genome.
        """
        return self._feasible_canonical(genome) is not None

    def _feasible_canonical(self, genome: Sequence[int]) -> Optional[tuple[int, ...]]:
        """``canonical(genome)`` if the genome is feasible, else ``None``."""
        canon = self.canonical(genome)
        feasible = self._feasible.get(canon)
        if feasible is None:
            feasible = self._feasible[canon] = self._check_constraints(
                self.decode(canon))
        return canon if feasible else None

    def _check_constraints(self, point: SearchPoint) -> bool:
        if point.topology is TopologyKind.ALLTOALL:
            # More switch planes than peer packages duplicates paths the
            # direct algorithms never schedule — reject as wasted budget.
            if point.global_switches > point.shape[1] - 1:
                return False
        max_links = self.constraints.max_links_per_npu
        if max_links is not None:
            counts = point.link_counts()
            if counts.total_links > max_links * self.num_npus:
                return False
        max_dollars = self.constraints.max_platform_dollars
        if max_dollars is not None:
            if point.dollars(self.cost_table) > max_dollars:
                return False
        return True

    # -- sampling and variation (used by the strategies) ---------------------

    def random_genome(self, rng) -> tuple[int, ...]:
        """One feasible canonical genome drawn from ``rng`` (seeded
        ``random.Random``); raises when constraints admit no point."""
        for _ in range(_SAMPLE_RETRIES):
            canon = self._feasible_canonical(
                [rng.randrange(size) for size in self._sizes])
            if canon is not None:
                return canon
        raise ConfigError(
            f"search space {self.name!r}: no feasible point found after "
            f"{_SAMPLE_RETRIES} samples; constraints are too tight")

    def mutate(self, rng, genome: Sequence[int],
               rate: float = 0.25) -> tuple[int, ...]:
        """Resample each gene with probability ``rate``; at least one
        gene always changes.  Falls back to a fresh random genome when
        no feasible mutant is found nearby."""
        genome = tuple(genome)
        variable = [(i, axis) for i, axis in enumerate(AXIS_NAMES)
                    if len(self.axes[axis]) > 1]
        if not variable:
            return self.canonical(genome)
        for _ in range(_SAMPLE_RETRIES // 10):
            mutant = list(genome)
            changed = False
            for i, size in enumerate(self._sizes):
                if size > 1 and rng.random() < rate:
                    mutant[i] = rng.randrange(size)
                    changed = True
            if not changed:
                i, axis = rng.choice(variable)
                mutant[i] = rng.randrange(len(self.axes[axis]))
            canon = self._feasible_canonical(mutant)
            if canon is not None:
                return canon
        return self.random_genome(rng)

    def crossover(self, rng, a: Sequence[int],
                  b: Sequence[int]) -> tuple[int, ...]:
        """Uniform crossover of two parents; infeasible children fall
        back to the fitter-by-convention first parent."""
        a, b = tuple(a), tuple(b)
        for _ in range(_SAMPLE_RETRIES // 10):
            child = tuple(x if rng.random() < 0.5 else y for x, y in zip(a, b))
            canon = self._feasible_canonical(child)
            if canon is not None:
                return canon
        return self.canonical(a)

    # -- exhaustive enumeration ----------------------------------------------

    def enumerate_genomes(self, limit: int = 100_000) -> list[tuple[int, ...]]:
        """Every distinct feasible canonical genome, in deterministic
        lexicographic order — the exhaustive-grid baseline searches are
        judged against.  Guarded by ``limit``: enumerating a space this
        size is exactly what the optimizer exists to avoid."""
        if self.num_genomes() > limit:
            raise ConfigError(
                f"search space {self.name!r} has {self.num_genomes()} genomes; "
                f"refusing to enumerate more than {limit}")
        seen: set[tuple[int, ...]] = set()
        out: list[tuple[int, ...]] = []
        sizes = self._sizes
        genome = [0] * len(sizes)
        while True:
            canon = self._feasible_canonical(genome)
            if canon is not None and canon not in seen:
                seen.add(canon)
                out.append(canon)
            # Odometer increment in lexicographic order.
            for i in range(len(sizes) - 1, -1, -1):
                genome[i] += 1
                if genome[i] < sizes[i]:
                    break
                genome[i] = 0
            else:
                return out
