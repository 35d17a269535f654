"""The benchmark's planted rounds as a differential test.

``perfbench/gen.py`` builds seeded rounds of whole episodes whose verdicts,
validation classes and structure counts are known from how they were built;
``perfbench/oracle.py`` recomputes every reward and return from the README's
formulas. Here each episode of a round runs through ``EpisodeRunner``, the
rollout round under the real ``LocalExecutor`` and the memory round under
the benchmark's in-memory ``ReferenceJudge``, and every finished episode is
checked against the oracle and for its self-turn edges. The round's JSONL
bytes must not depend on how many episodes run at once.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from agentdag import jsonio
from agentdag.adapters import LocalExecutor, ScriptedPolicy, ScriptedRoleBackend
from agentdag.config import RunConfig
from agentdag.orchestrator import EpisodeRunner
from agentdag.problem import ProblemSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402

SEEDS = (11, 12)


def check_self_turn_edges(episode: dict) -> None:
    """The one edge kind the oracle leaves out: each agent id a document
    shares with the last turn that ran gets one ``self_turn`` edge, and no
    other id does. Ids are read from the parsed documents, not from the DAGs."""
    prev: set[str] = set()
    for turn in episode["trajectory"]["turns"]:
        if turn["dag"] is None:  # the turn did not run
            continue
        ids = {agent["id"] for step in turn["topology"]["steps"] for agent in step["agents"]}
        self_edges = sorted(src for src, dst, kind in turn["dag"]["edges"]
                            if kind == "self_turn" and src == dst)
        assert self_edges == sorted(ids & prev), (episode["problem_id"], turn["turn"])
        prev = ids


def play(episodes: list, problems: list[ProblemSpec], sandbox, workers: int) -> str:
    """Runs every episode as the benchmark's op does, ``workers`` at a time,
    checks each against the oracle, and returns the JSONL text in order."""
    config = RunConfig(max_turns=episodes[0].max_turns, gamma=gen.GAMMA, weights=gen.WEIGHTS)
    roles = ScriptedRoleBackend(
        solutions={ep.problem["id"]: list(ep.solutions) for ep in episodes})

    def one(i: int) -> str:
        planted, problem = episodes[i], problems[i]
        policy = bench.Counted(
            ScriptedPolicy({problem.id: [t.policy_text for t in planted.turns]}), "generate")
        counted_roles = bench.Counted(roles, "respond")
        result = EpisodeRunner(policy, counted_roles, sandbox, config).run(problem)
        line = jsonio.dumps(result.to_dict())
        episode = json.loads(line)
        oracle.check_episode(episode, planted, role_calls=counted_roles.calls,
                             policy_calls=policy.calls, gamma=gen.GAMMA, weights=gen.WEIGHTS)
        check_self_turn_edges(episode)
        return line

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return "".join(line + "\n" for line in pool.map(one, range(len(episodes))))


@pytest.mark.parametrize("seed", SEEDS)
def test_a_rollout_round_under_the_real_judge_meets_the_oracle(seed):
    episodes = gen.rollout_round(seed)
    problems = [ProblemSpec.from_dict(ep.problem) for ep in episodes]
    sandbox = LocalExecutor(RunConfig().executor)
    assert play(episodes, problems, sandbox, 1) == play(episodes, problems, sandbox, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_memory_round_meets_the_oracle(seed):
    episodes = gen.mem_round(seed)
    problems = [ProblemSpec.from_dict(ep.problem) for ep in episodes]
    sandbox = bench.ReferenceJudge(problems, episodes)
    assert play(episodes, problems, sandbox, 1) == play(episodes, problems, sandbox, 4)


def test_the_oracle_reproduces_the_readmes_worked_examples():
    oracle.self_test()
