"""Tests for the search loop: budget accounting, --jobs determinism,
warm-cache reruns, trajectory resume, and the fig09 acceptance bar."""

import json

import pytest

from repro.errors import ConfigError
from repro.parallel.cache import RunCache
from repro.parallel.executor import ParallelExecutor
from repro.search.driver import load_trajectory, rank_frontier, run_search
from repro.search.objectives import make_objective
from repro.search.space import SearchSpace
from repro.search.strategies import make_strategy

SPEC = {
    "name": "driver-unit",
    "num_npus": 4,
    "collective": "allreduce",
    "size_bytes": 65536,
    "axes": {
        "topology": ["Torus", "AllToAll"],
        "torus_shape": ["1x4x1", "2x2x1"],
        "alltoall_shape": ["1x4", "2x2"],
        "algorithm": ["baseline", "enhanced"],
        "scheduling_policy": ["LIFO"],
        "chunks": [1, 4],
        "local_rings": [1, 2],
        "horizontal_rings": [1, 2],
        "vertical_rings": [1],
        "global_switches": [1, 2],
        "symmetric": [False],
    },
}


def fingerprint(trajectory):
    return [(e.genome, e.label, e.duration_cycles, e.score) for e in trajectory]


def search(seed=2020, budget=8, strategy="random", jobs=1, cache=None,
           spec=SPEC, objective="time", **kwargs):
    space = SearchSpace.from_dict(spec)
    obj = make_objective(objective, space.cost_table, space.size_bytes)
    strat = make_strategy(strategy, space, seed)
    ex = ParallelExecutor(jobs=jobs, cache=cache)
    trajectory = run_search(space, obj, strat, budget=budget, executor=ex,
                            **kwargs)
    return trajectory, ex


class TestBudgetAndDedup:
    def test_budget_bounds_unique_evaluations(self):
        trajectory, ex = search(budget=5)
        assert len(trajectory) == 5
        assert len({e.genome for e in trajectory}) == 5
        assert ex.simulations_run == 5

    def test_small_space_exhausts_before_budget(self):
        spec = dict(SPEC, axes={
            "topology": ["Torus"], "torus_shape": ["2x2x1"],
            "alltoall_shape": ["2x2"], "scheduling_policy": ["LIFO"],
            "chunks": [1, 4], "local_rings": [1], "horizontal_rings": [1],
            "vertical_rings": [1], "global_switches": [1],
            "algorithm": ["baseline"], "symmetric": [False]})
        space = SearchSpace.from_dict(spec)
        unique = len(space.enumerate_genomes())
        trajectory, ex = search(budget=50, spec=spec)
        assert len(trajectory) == unique
        assert ex.simulations_run == unique

    def test_bad_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            search(budget=0)

    def test_scores_are_simulated_cycles_for_time_objective(self):
        trajectory, _ = search(budget=4)
        for evaluation in trajectory:
            assert evaluation.score == evaluation.duration_cycles
            assert evaluation.duration_cycles >= evaluation.floor_cycles
            assert evaluation.dollars > 0


class TestJobsDeterminism:
    @pytest.mark.parametrize("strategy", ["random", "evolutionary"])
    def test_bit_identical_across_jobs(self, strategy):
        serial, _ = search(strategy=strategy, jobs=1, budget=10)
        fanned, _ = search(strategy=strategy, jobs=3, budget=10)
        assert fingerprint(serial) == fingerprint(fanned)

    def test_ranked_frontier_is_stable(self):
        a, _ = search(jobs=1, budget=10)
        b, _ = search(jobs=2, budget=10)
        assert fingerprint(rank_frontier(a)) == fingerprint(rank_frontier(b))


class TestWarmCache:
    @pytest.mark.parametrize("strategy", ["random", "evolutionary"])
    def test_rerun_performs_zero_simulations(self, tmp_path, strategy):
        cold, cold_ex = search(strategy=strategy, budget=8,
                               cache=RunCache(str(tmp_path)))
        warm, warm_ex = search(strategy=strategy, budget=8,
                               cache=RunCache(str(tmp_path)))
        assert cold_ex.simulations_run == 8
        assert warm_ex.simulations_run == 0
        assert warm_ex.cache.stats.hits == 8
        assert fingerprint(cold) == fingerprint(warm)


class TestTrajectoryLog:
    def test_log_replays_into_memo(self, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        trajectory, _ = search(budget=6, trajectory_path=path)
        space = SearchSpace.from_dict(SPEC)
        objective = make_objective("time", space.cost_table, space.size_bytes)
        memo = load_trajectory(path, space, objective)
        assert len(memo) == 6
        assert fingerprint(memo.values()) == fingerprint(trajectory)

    def test_header_guards_against_space_mismatch(self, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        search(budget=2, trajectory_path=path)
        other = SearchSpace.from_dict(dict(SPEC, size_bytes=1024))
        objective = make_objective("time", other.cost_table, other.size_bytes)
        with pytest.raises(ConfigError, match="different space"):
            load_trajectory(path, other, objective)

    def test_resume_skips_prior_points(self, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        first, first_ex = search(budget=6, trajectory_path=path)
        assert first_ex.simulations_run == 6
        # Same seed resumes by replaying the proposal stream: the first 6
        # unique proposals are served from the preloaded memo, so only
        # genuinely new points are simulated.
        second, second_ex = search(budget=4, trajectory_path=path,
                                   resume=True)
        assert second_ex.simulations_run == len(second) == 4
        assert not {e.genome for e in second} & {e.genome for e in first}
        # The log now carries all evaluations for a future resume.
        space = SearchSpace.from_dict(SPEC)
        objective = make_objective("time", space.cost_table, space.size_bytes)
        assert len(load_trajectory(path, space, objective)) == 10

    def test_resume_requires_path(self):
        with pytest.raises(ConfigError, match="trajectory"):
            search(budget=2, resume=True)

    def test_log_lines_are_json(self, tmp_path):
        path = str(tmp_path / "traj.jsonl")
        search(budget=3, trajectory_path=path)
        with open(path) as f:
            records = [json.loads(line) for line in f]
        assert records[0]["type"] == "header"
        assert len(records) == 4
        assert all("duration_cycles" in r for r in records[1:])


class TestObjectives:
    def test_cost_objective_reranks(self):
        time_traj, _ = search(budget=10, objective="time")
        cost_traj, _ = search(budget=10, objective="cost")
        # Same seed, same strategy: identical visited points, different
        # scores (cost folds in platform dollars).
        assert [e.genome for e in time_traj] == [e.genome for e in cost_traj]
        assert [e.score for e in time_traj] != [e.score for e in cost_traj]

    def test_perf_per_link_dollar_scores_are_negative(self):
        trajectory, _ = search(budget=4, objective="perf-per-link-dollar")
        assert all(e.score < 0 for e in trajectory)


class TestFig09Acceptance:
    """The ISSUE acceptance bar: a seeded search matches the best point
    of the fig09-equivalent space with far fewer evaluations than
    exhaustive enumeration."""

    def test_search_matches_exhaustive_best_with_fewer_evaluations(self):
        spec = json.load(open("examples/configs/search_fig09.json"))
        spec["size_bytes"] = 65536  # keep the tier-1 suite fast
        space = SearchSpace.from_dict(spec)
        objective = make_objective("time", space.cost_table,
                                   space.size_bytes)

        genomes = space.enumerate_genomes()
        from repro.parallel.executor import RunPoint

        ex = ParallelExecutor(jobs=4)
        points = [space.decode(g) for g in genomes]
        results = ex.run_points([
            RunPoint(builder=p.platform_spec,
                     op=space.collective, size_bytes=space.size_bytes)
            for p in points])
        exhaustive_best = min(r.duration_cycles for r in results)

        budget = 48
        assert budget < len(genomes)
        strategy = make_strategy("evolutionary", space, seed=2020)
        trajectory = run_search(space, objective, strategy, budget=budget,
                                executor=ParallelExecutor(jobs=4))
        search_best = rank_frontier(trajectory)[0]
        assert search_best.score <= exhaustive_best
