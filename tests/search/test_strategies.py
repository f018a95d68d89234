"""Tests for the seeded strategies: determinism, population dynamics,
and the factory."""

import pytest

from repro.errors import ConfigError
from repro.search.space import SearchSpace
from repro.search.strategies import EvolutionaryStrategy, RandomStrategy, make_strategy

SPEC = {
    "num_npus": 8,
    "collective": "allreduce",
    "size_bytes": 65536,
    "axes": {
        "torus_shape": ["2x4x1", "1x8x1"],
        "alltoall_shape": ["2x4", "1x8"],
        "scheduling_policy": ["LIFO", "FIFO"],
        "chunks": [1, 4, 16],
        "vertical_rings": [1],
        "symmetric": [False],
    },
}


def space():
    return SearchSpace.from_dict(SPEC)


class TestRandomStrategy:
    def test_seeded_determinism(self):
        a = RandomStrategy(space(), seed=11, generation_size=6)
        b = RandomStrategy(space(), seed=11, generation_size=6)
        for _ in range(4):
            assert a.ask() == b.ask()

    def test_different_seeds_diverge(self):
        a = RandomStrategy(space(), seed=1, generation_size=8)
        b = RandomStrategy(space(), seed=2, generation_size=8)
        assert a.ask() != b.ask()

    def test_generation_size(self):
        strat = RandomStrategy(space(), seed=0, generation_size=5)
        assert len(strat.ask()) == 5

    def test_bad_generation_size(self):
        with pytest.raises(ConfigError):
            RandomStrategy(space(), seed=0, generation_size=0)


class TestEvolutionaryStrategy:
    def test_first_generation_is_mu_plus_lambda(self):
        strat = EvolutionaryStrategy(space(), seed=5, mu=3, lam=4)
        assert len(strat.ask()) == 7

    def test_population_truncates_to_mu_best(self):
        strat = EvolutionaryStrategy(space(), seed=5, mu=2, lam=3)
        asked = strat.ask()
        strat.tell([(g, float(i)) for i, g in enumerate(asked)])
        assert len(strat.population) == 2
        assert [score for score, _ in strat.population] == [0.0, 1.0]

    def test_tell_order_does_not_matter(self):
        scored = [(g, float(i % 3))
                  for i, g in enumerate(space().enumerate_genomes()[:6])]
        a = EvolutionaryStrategy(space(), seed=5, mu=4, lam=4)
        b = EvolutionaryStrategy(space(), seed=5, mu=4, lam=4)
        a.ask(), b.ask()
        a.tell(scored)
        b.tell(list(reversed(scored)))
        assert a.population == b.population

    def test_children_are_feasible_canonical(self):
        sp = space()
        strat = EvolutionaryStrategy(sp, seed=5, mu=2, lam=6)
        asked = strat.ask()
        strat.tell([(g, float(i)) for i, g in enumerate(asked)])
        children = strat.ask()
        assert len(children) == 6
        for child in children:
            assert sp.is_feasible(child)
            assert child == sp.canonical(child)

    def test_seeded_determinism_across_generations(self):
        def trajectory(seed):
            strat = EvolutionaryStrategy(space(), seed=seed, mu=2, lam=4)
            out = []
            for _ in range(3):
                asked = strat.ask()
                out.append(asked)
                strat.tell([(g, float(sum(g))) for g in asked])
            return out

        assert trajectory(42) == trajectory(42)
        assert trajectory(42) != trajectory(43)

    def test_keeps_best_score_for_repeated_genome(self):
        strat = EvolutionaryStrategy(space(), seed=5, mu=1, lam=1)
        genome = strat.ask()[0]
        strat.tell([(genome, 9.0)])
        strat.tell([(genome, 4.0)])
        assert strat.population == [(4.0, genome)]
        strat.tell([(genome, 7.0)])
        assert strat.population == [(4.0, genome)]

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            EvolutionaryStrategy(space(), seed=0, mu=0)
        with pytest.raises(ConfigError):
            EvolutionaryStrategy(space(), seed=0, mutation_rate=0.0)


class TestFactory:
    def test_names(self):
        assert make_strategy("random", space(), 1).name == "random"
        assert make_strategy("evolutionary", space(), 1).name == "evolutionary"

    def test_parameters_thread_through(self):
        strat = make_strategy("evolutionary", space(), 1, mu=5, lam=9,
                              mutation_rate=0.5)
        assert (strat.mu, strat.lam, strat.mutation_rate) == (5, 9, 0.5)

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown strategy"):
            make_strategy("annealing", space(), 1)
