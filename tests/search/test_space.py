"""Tests for the declarative search space: JSON loading, validation,
genome encode/decode/canonicalization, and feasibility."""

import random

import pytest

from repro.config.fields import parse_shape
from repro.config.parameters import TopologyKind
from repro.errors import ConfigError
from repro.search.space import AXIS_NAMES, SearchSpace

SPEC = {
    "name": "unit",
    "num_npus": 8,
    "collective": "allreduce",
    "size_bytes": 65536,
    "axes": {
        "topology": ["Torus", "AllToAll"],
        "torus_shape": ["2x4x1", "1x8x1"],
        "alltoall_shape": ["2x4", "1x8"],
        "algorithm": ["baseline", "enhanced"],
        "scheduling_policy": ["LIFO"],
        "chunks": [1, 4],
        "local_rings": [1, 2],
        "horizontal_rings": [1, 2],
        "vertical_rings": [1],
        "global_switches": [2, 7],
        "symmetric": [False],
    },
}


def space_for(**overrides) -> SearchSpace:
    data = dict(SPEC)
    data.update(overrides)
    return SearchSpace.from_dict(data)


class TestLoading:
    def test_round_trip(self):
        space = space_for()
        assert space.num_npus == 8
        assert space.collective.value == "allreduce"
        assert space.axes["torus_shape"] == ((2, 4, 1), (1, 8, 1))

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="budget: unknown parameter"):
            space_for(budget=10)

    def test_unknown_axis(self):
        data = dict(SPEC, axes={"topologee": ["Torus"]})
        with pytest.raises(ConfigError, match="axes.topologee: unknown parameter"):
            SearchSpace.from_dict(data)

    def test_empty_axis(self):
        data = dict(SPEC, axes={"chunks": []})
        with pytest.raises(ConfigError, match="axes.chunks: axis has no values"):
            SearchSpace.from_dict(data)

    def test_shape_product_must_match_num_npus(self):
        data = dict(SPEC, axes={"torus_shape": ["2x4x4"]})
        with pytest.raises(ConfigError, match="num_npus"):
            SearchSpace.from_dict(data)

    def test_bad_collective(self):
        with pytest.raises(ConfigError, match="collective: got 'allermost'; allowed values"):
            space_for(collective="allermost")

    def test_num_npus_required(self):
        with pytest.raises(ConfigError, match="num_npus"):
            SearchSpace.from_dict({"collective": "allreduce"})

    def test_defaults_fill_omitted_axes(self):
        space = SearchSpace.from_dict({"num_npus": 8})
        for axis in AXIS_NAMES:
            assert space.axes[axis], axis

    def test_unknown_cost_key(self):
        with pytest.raises(ConfigError, match="cost.link_dollars: unknown parameter"):
            space_for(cost={"link_dollars": 1.0})

    def test_unknown_constraint(self):
        with pytest.raises(ConfigError, match="constraints.max_watts: unknown parameter"):
            space_for(constraints={"max_watts": 5})


class TestShapeValues:
    def test_string_and_list_forms_agree(self):
        assert parse_shape("2x4x1", 3) == (2, 4, 1)
        assert parse_shape([2, 4, 1], 3) == (2, 4, 1)

    def test_wrong_arity(self):
        with pytest.raises(ConfigError, match="3 dimensions"):
            parse_shape("2x4", 3)

    def test_garbage(self):
        with pytest.raises(ConfigError, match="bad shape"):
            parse_shape("2xbanana", 3)


class TestGenomes:
    def test_decode_torus_point(self):
        space = space_for()
        genome = space.canonical((0,) * len(AXIS_NAMES))
        point = space.decode(genome)
        assert point.topology is TopologyKind.TORUS
        assert point.shape == (2, 4, 1)
        assert point.num_npus == 8
        assert "torus-2x4x1" in point.label

    def test_canonical_zeroes_dead_genes(self):
        space = space_for()
        # Torus genome: the alltoall_shape and global_switches genes are
        # dead, so two genomes differing only there collapse together.
        base = [0] * len(AXIS_NAMES)
        variant = list(base)
        variant[AXIS_NAMES.index("alltoall_shape")] = 1
        variant[AXIS_NAMES.index("global_switches")] = 1
        assert space.canonical(base) == space.canonical(variant)

    def test_canonical_zeroes_size1_dim_rings(self):
        space = space_for()
        genome = [0] * len(AXIS_NAMES)
        genome[AXIS_NAMES.index("torus_shape")] = 1  # 1x8x1
        variant = list(genome)
        variant[AXIS_NAMES.index("local_rings")] = 1  # dead: local dim is 1
        assert space.canonical(genome) == space.canonical(variant)

    def test_canonical_keeps_live_genes(self):
        space = space_for()
        a = [0] * len(AXIS_NAMES)
        b = list(a)
        b[AXIS_NAMES.index("chunks")] = 1
        assert space.canonical(a) != space.canonical(b)

    def test_out_of_range_gene(self):
        space = space_for()
        genome = [0] * len(AXIS_NAMES)
        genome[0] = 99
        with pytest.raises(ConfigError, match="out of range"):
            space.decode(genome)

    def test_enumerate_is_unique_feasible_and_deterministic(self):
        space = space_for()
        genomes = space.enumerate_genomes()
        assert len(genomes) == len(set(genomes))
        assert all(space.is_feasible(g) for g in genomes)
        assert genomes == space.enumerate_genomes()
        assert len(genomes) < space.num_genomes()

    def test_enumerate_guard(self):
        space = space_for()
        with pytest.raises(ConfigError, match="refusing to enumerate"):
            space.enumerate_genomes(limit=3)


class TestFeasibility:
    def test_switches_capped_by_packages(self):
        space = space_for()
        genome = [0] * len(AXIS_NAMES)
        genome[AXIS_NAMES.index("topology")] = 1  # AllToAll
        genome[AXIS_NAMES.index("alltoall_shape")] = 0  # 2x4: 3 peer pkgs
        genome[AXIS_NAMES.index("global_switches")] = 1  # 7 switches
        assert not space.is_feasible(genome)
        genome[AXIS_NAMES.index("alltoall_shape")] = 1  # 1x8: 7 peers, OK
        assert space.is_feasible(genome)

    def test_max_links_per_npu(self):
        tight = space_for(constraints={"max_links_per_npu": 2})
        loose = space_for(constraints={"max_links_per_npu": 64})
        genomes = loose.enumerate_genomes()
        assert len(tight.enumerate_genomes()) < len(genomes)
        for genome in tight.enumerate_genomes():
            counts = tight.decode(genome).link_counts()
            assert counts.total_links <= 2 * tight.num_npus

    def test_max_platform_dollars(self):
        space = space_for(constraints={"max_platform_dollars": 90_000})
        for genome in space.enumerate_genomes():
            point = space.decode(genome)
            assert point.dollars(space.cost_table) <= 90_000

    def test_impossible_constraints_raise_on_sampling(self):
        space = space_for(constraints={"max_platform_dollars": 1})
        with pytest.raises(ConfigError, match="no feasible point"):
            space.random_genome(random.Random(0))


class TestSamplingAndVariation:
    def test_random_genome_is_seeded(self):
        space = space_for()
        a = [space.random_genome(random.Random(9)) for _ in range(10)]
        b = [space.random_genome(random.Random(9)) for _ in range(10)]
        assert a == b
        assert all(space.is_feasible(g) for g in a)

    def test_mutate_changes_and_stays_feasible(self):
        space = space_for()
        rng = random.Random(3)
        genome = space.random_genome(rng)
        mutants = [space.mutate(rng, genome) for _ in range(20)]
        assert all(space.is_feasible(m) for m in mutants)
        assert any(m != genome for m in mutants)

    def test_crossover_mixes_parents(self):
        space = space_for()
        rng = random.Random(4)
        a = space.random_genome(rng)
        b = space.random_genome(rng)
        child = space.crossover(rng, a, b)
        assert space.is_feasible(child)
        assert child == space.canonical(child)


class TestPlatformBuilding:
    def test_torus_platform(self):
        space = space_for()
        point = space.decode(space.canonical((0,) * len(AXIS_NAMES)))
        spec = point.platform_spec()
        assert spec.name == "torus-2x4x1"
        assert spec.config.system.scheduling_policy.value == "LIFO"

    def test_alltoall_platform_carries_policy_and_switches(self):
        space = SearchSpace.from_dict(dict(
            SPEC,
            axes=dict(SPEC["axes"], topology=["AllToAll"],
                      scheduling_policy=["PRIORITY"], global_switches=[7],
                      alltoall_shape=["1x8"]),
        ))
        point = space.decode(space.canonical((0,) * len(AXIS_NAMES)))
        spec = point.platform_spec()
        assert spec.name == "alltoall-1x8"
        assert spec.config.system.global_switches == 7
        assert spec.config.system.scheduling_policy.value == "PRIORITY"
