"""The benchmark's planted rounds as a differential test.

``perfbench/gen.py`` builds seeded rounds of whole episodes whose verdicts,
validation classes and structure counts are known from how they were built;
``perfbench/oracle.py`` recomputes every reward and return from the README's
formulas. Here each episode of a round runs through ``EpisodeRunner``, the
rollout round under the real ``LocalExecutor`` and the memory round under
the benchmark's in-memory ``ReferenceJudge``, and every finished episode is
checked against the oracle and for the self-turn edges of the DAGs that the
README's recipe rebuilds from its line. The round's JSONL bytes must not
depend on how many episodes run at once. Every history prompt the policy is
shown is checked too: each earlier executed topology appears in it once, and
each earlier invalid turn's raw output is there as it was.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from conftest import PromptSpy, rebuild_dags, topology_blocks

from agentdag import jsonio
from agentdag.adapters import LocalExecutor, ScriptedPolicy, ScriptedRoleBackend
from agentdag.config import RunConfig
from agentdag.dsl import to_yaml
from agentdag.graph import EdgeKind, density_scores
from agentdag.orchestrator import EpisodeRunner, truncate_text
from agentdag.problem import ProblemSpec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402

SEEDS = (11, 12)


def check_self_turn_edges(episode: dict) -> None:
    """The one edge kind the oracle leaves out, on the DAGs the README's recipe
    rebuilds from the line: each agent id a document shares with the last turn
    that ran gets one ``self_turn`` edge, and no other id does. Ids are read
    from the parsed documents, not from the DAGs. Each rebuilt DAG also gives
    the line's density and runs its agents in the order of the line's messages."""
    turns = episode["trajectory"]["turns"]
    dags = rebuild_dags(turns)
    assert sorted(dags) == [t["turn"] for t in turns if t["outcome"] is not None]
    prev: set[str] = set()
    for turn in turns:
        if turn["topology"] is None:  # the turn did not run
            continue
        where = (episode["problem_id"], turn["turn"])
        dag = dags[turn["turn"]]
        ids = {agent["id"] for step in turn["topology"]["steps"] for agent in step["agents"]}
        self_edges = sorted(e.src for e in dag.edges
                            if e.kind is EdgeKind.SELF_TURN and e.src == e.dst)
        assert self_edges == sorted(ids & prev), where
        assert density_scores(dag, turn["topology"]["difficulty"]).to_dict() == turn["density"], \
            where
        assert [m["agent_id"] for m in turn["messages"]] == \
            [agent_id for layer in dag.layers for agent_id in layer], where
        prev = ids


def check_history_prompts(prompts: list[str], turns, text_cap: int) -> None:
    """Prompt k shows, as whole blocks, each topology once for every earlier
    executed turn that used it (all of them failed, or the episode would have
    ended), and each earlier invalid turn's raw output under its own header."""
    for k, prompt in enumerate(prompts):
        earlier = turns[:k]
        shown = Counter(topology_blocks(prompt))
        assert shown == Counter(to_yaml(t.doc).rstrip("\n") for t in earlier
                                if t.doc is not None), k
        for t in earlier:
            if t.doc is None:
                raw = truncate_text(t.policy_text, text_cap)
                assert f"--- turn {t.turn} ---\nraw output:\n{raw}\nfeedback:\n" in prompt, \
                    (k, t.turn)


def play(episodes: list, problems: list[ProblemSpec], sandbox, workers: int) -> str:
    """Runs every episode as the benchmark's op does, ``workers`` at a time,
    checks each against the oracle and its history prompts, and returns the
    JSONL text in order."""
    config = RunConfig(max_turns=episodes[0].max_turns, gamma=gen.GAMMA, weights=gen.WEIGHTS)
    roles = ScriptedRoleBackend(
        solutions={ep.problem["id"]: list(ep.solutions) for ep in episodes})

    def one(i: int) -> str:
        planted, problem = episodes[i], problems[i]
        spy = PromptSpy(ScriptedPolicy({problem.id: [t.policy_text for t in planted.turns]}))
        policy = bench.Counted(spy, "generate")
        counted_roles = bench.Counted(roles, "respond")
        result = EpisodeRunner(policy, counted_roles, sandbox, config).run(problem)
        check_history_prompts(spy.prompts, result.trajectory.turns, config.observation_log_cap)
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
