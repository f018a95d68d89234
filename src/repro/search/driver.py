"""The search loop: ask → simulate (batched, cached) → score → tell.

:func:`run_search` owns everything around the strategy: canonicalizing
and deduplicating proposals, charging the evaluation budget, batching
each generation through :class:`repro.parallel.ParallelExecutor` (so
``--jobs`` parallelism and the content-addressed run cache apply), and
appending every evaluation to a JSONL trajectory log that a later run
can resume from.

Determinism contract (tested in tests/search/): with a fixed seed the
visited genomes, scores, and report are bit-identical across ``--jobs``
values — the executor returns results in stable input order and the
strategy's randomness never observes evaluation timing.  A rerun with a
warm run cache replays the same trajectory with zero simulations.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.search.objectives import Objective, floor_cycles
from repro.search.space import SearchSpace
from repro.search.strategies import Genome, Strategy

#: Consecutive generations with no new unique point before giving up —
#: small spaces are exhausted long before an evaluation budget is.
_STALE_ROUNDS = 3


@dataclass(frozen=True)
class Evaluation:
    """One scored design point."""

    genome: Genome
    label: str
    duration_cycles: float
    score: float
    floor_cycles: float
    dollars: float

    @property
    def floor_ratio(self) -> float:
        """Simulated / lower-bound cycles; below 1.0 means the simulator
        beat an information-theoretic floor, i.e. a bug."""
        return self.duration_cycles / self.floor_cycles

    def to_dict(self) -> dict:
        return {
            "genome": list(self.genome),
            "label": self.label,
            "duration_cycles": self.duration_cycles,
            "score": self.score,
            "floor_cycles": self.floor_cycles,
            "dollars": self.dollars,
        }


def _trajectory_header(space: SearchSpace, objective: Objective,
                       strategy: Strategy) -> dict:
    return {
        "type": "header",
        "space": space.name,
        "num_npus": space.num_npus,
        "collective": space.collective.value,
        "size_bytes": space.size_bytes,
        "objective": objective.name,
        "strategy": strategy.name,
        "seed": strategy.seed,
    }


def load_trajectory(path: str, space: SearchSpace, objective: Objective,
                    poisoned: Optional[set] = None) -> dict[Genome, Evaluation]:
    """Replay a trajectory log into a genome → evaluation memo.

    Scores and floors are recomputed from the stored cycles under the
    *current* objective, so a resumed search may re-rank prior points —
    the simulations stay reused either way.

    ``type="quarantined"`` records (written when a supervised run poisons
    a point — docs/SUPERVISION.md) are collected into ``poisoned`` when a
    set is passed, so a resumed search skips them without re-simulating.
    """
    memo: dict[Genome, Evaluation] = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"trajectory {path}:{lineno}: invalid JSON: {exc}") from None
        if record.get("type") == "header":
            if (record.get("num_npus") != space.num_npus
                    or record.get("collective") != space.collective.value
                    or record.get("size_bytes") != space.size_bytes):
                raise ConfigError(
                    f"trajectory {path} was recorded for a different space "
                    f"({record.get('num_npus')} NPUs, "
                    f"{record.get('collective')}, "
                    f"{record.get('size_bytes')} bytes)")
            continue
        if record.get("type") == "quarantined":
            if poisoned is not None:
                poisoned.add(
                    space.canonical(tuple(int(g) for g in record["genome"])))
            continue
        genome = space.canonical(tuple(int(g) for g in record["genome"]))
        point = space.decode(genome)
        cycles = float(record["duration_cycles"])
        memo[genome] = Evaluation(
            genome=genome,
            label=point.label,
            duration_cycles=cycles,
            score=objective.score(point, cycles),
            floor_cycles=floor_cycles(point, space.collective.value,
                                      space.size_bytes),
            dollars=objective.dollars(point),
        )
    return memo


def run_search(
    space: SearchSpace,
    objective: Objective,
    strategy: Strategy,
    budget: int,
    executor: Optional[object] = None,
    trajectory_path: Optional[str] = None,
    resume: bool = False,
) -> list[Evaluation]:
    """Run the search until ``budget`` unique points are evaluated.

    Returns every evaluation in visit order (the trajectory).  Proposals
    already in the memo are re-told to the strategy but cost nothing and
    do not consume budget; the loop also stops after
    :data:`_STALE_ROUNDS` generations without a new unique point, or
    when the strategy stops proposing.
    """
    from repro.parallel import RunPoint, default_executor

    if budget < 1:
        raise ConfigError(f"search budget must be >= 1, got {budget}")
    ex = executor if executor is not None else default_executor()

    memo: dict[Genome, Evaluation] = {}
    #: Genomes a supervised run quarantined (this run or a resumed one):
    #: never re-proposed, never re-simulated, never scored.
    poisoned: set[Genome] = set()
    if resume:
        if not trajectory_path:
            raise ConfigError("--resume needs a trajectory path")
        if os.path.exists(trajectory_path):
            memo = load_trajectory(trajectory_path, space, objective,
                                   poisoned=poisoned)

    log = None
    if trajectory_path:
        fresh = not (resume and os.path.exists(trajectory_path)
                     and os.path.getsize(trajectory_path) > 0)
        log = open(trajectory_path, "w" if fresh else "a")
        if fresh:
            log.write(json.dumps(_trajectory_header(space, objective, strategy))
                      + "\n")

    trajectory: list[Evaluation] = []
    evaluated = 0
    stale = 0
    try:
        while evaluated < budget and stale < _STALE_ROUNDS:
            asked = strategy.ask()
            if not asked:
                break
            canon = [space.canonical(g) for g in asked]

            # New unique genomes this generation, in proposal order,
            # capped to the remaining budget.
            fresh_genomes: list[Genome] = []
            batch_seen: set[Genome] = set()
            for genome in canon:
                if genome in memo or genome in batch_seen or genome in poisoned:
                    continue
                if evaluated + len(fresh_genomes) >= budget:
                    break
                batch_seen.add(genome)
                fresh_genomes.append(genome)

            if fresh_genomes:
                stale = 0
                points = [space.decode(g) for g in fresh_genomes]
                run_points = [
                    RunPoint(
                        builder=point.platform_spec,
                        op=space.collective,
                        size_bytes=space.size_bytes,
                    )
                    for point in points
                ]
                outcomes = ex.run_outcomes(run_points)
                for genome, point, outcome in zip(fresh_genomes, points,
                                                  outcomes):
                    if not outcome.ok:
                        # Poison point: record the gap in the frontier
                        # and the trajectory, keep searching.
                        poisoned.add(genome)
                        if log is not None:
                            log.write(json.dumps({
                                "type": "quarantined",
                                "genome": list(genome),
                                "label": point.label,
                                "failure_class": outcome.failure_class,
                                "error": outcome.error,
                            }) + "\n")
                        continue
                    result = outcome.result
                    evaluation = Evaluation(
                        genome=genome,
                        label=point.label,
                        duration_cycles=result.duration_cycles,
                        score=objective.score(point, result.duration_cycles),
                        floor_cycles=floor_cycles(point, space.collective.value,
                                                  space.size_bytes),
                        dollars=objective.dollars(point),
                    )
                    memo[genome] = evaluation
                    trajectory.append(evaluation)
                    evaluated += 1
                    if log is not None:
                        log.write(json.dumps(evaluation.to_dict()) + "\n")
                if log is not None:
                    log.flush()
            else:
                stale += 1

            strategy.tell([(g, memo[g].score) for g in canon if g in memo])
    finally:
        if log is not None:
            log.close()
    return trajectory


def rank_frontier(evaluations: list[Evaluation],
                  memo_extra: Optional[dict[Genome, Evaluation]] = None
                  ) -> list[Evaluation]:
    """All known evaluations, best score first; ties break on the label
    then genome so the ranking is stable across runs and job counts."""
    merged: dict[Genome, Evaluation] = {}
    if memo_extra:
        merged.update(memo_extra)
    for evaluation in evaluations:
        merged[evaluation.genome] = evaluation
    ranked = list(merged.values())
    for evaluation in ranked:
        if not math.isfinite(evaluation.score):
            raise ConfigError(
                f"non-finite score for {evaluation.label}: {evaluation.score}")
    ranked.sort(key=lambda e: (e.score, e.label, e.genome))
    return ranked
