"""Episode loop: code extraction, feedback prompts, scripted end-to-end runs."""

from __future__ import annotations

import contextvars
import dataclasses
import json
import os
import signal
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import CountingSandbox, PromptSpy, topology_blocks
from oracles import graph_reward_oracle

from agentdag import orchestrator
from agentdag.adapters import (
    AdapterError,
    AgentResponse,
    LocalExecutor,
    ScriptedPolicy,
    ScriptedRoleBackend,
    estimate_tokens,
)
from agentdag.config import RunConfig
from agentdag.dsl import ErrorClass, check_topology, parse_topology, to_yaml
from agentdag.orchestrator import (
    NO_CODE_LOG,
    AgentMessage,
    EpisodeRunner,
    build_observation,
    build_validation_observation,
    extract_code,
    render_history_prompt,
    truncate_text,
)
from agentdag.problem import ProblemSpec, TestCase
from agentdag.verdicts import ExecOutcome, TestResult, Verdict

ECHO = ProblemSpec(
    id="echo",
    description="Read one line from stdin and print it back.",
    tests=(TestCase(input="hi\n", expected_output="hi\n"),
           TestCase(input="yo\n", expected_output="yo\n")),
    time_limit_ms=4000,
    memory_limit_mb=256,
)

ECHO_SOLUTION = "print(input())"
WRONG_SOLUTION = "print('nope')"


def fenced(body: str) -> str:
    return f"Proposed topology:\n```yaml\n{body}```\n"


PLAN_CODE = """\
difficulty: 1
steps:
  - agents:
      - id: planner
        role: planning
        ref: []
  - agents:
      - id: coder
        role: coding
        ref: [planner]
"""

CROSS_TURN = """\
difficulty: 1
steps:
  - agents:
      - id: tester
        role: testing
        ref: []
  - agents:
      - id: fixer
        role: debugging
        ref: [tester, coder]
"""

WIDE = """\
difficulty: 2
steps:
  - agents:
      - id: alpha
        role: retrieval
        ref: []
      - id: beta
        role: planning
        ref: []
  - agents:
      - id: coder
        role: coding
        ref: [alpha, beta]
"""

PLAN_ONLY = """\
difficulty: 1
steps:
  - agents:
      - id: planner
        role: planning
        ref: []
"""

NO_DIFFICULTY = """\
steps:
  - agents:
      - id: coder
        role: coding
        ref: []
"""


def message(content: str, agent_id: str = "a", turn: int = 1) -> AgentMessage:
    return AgentMessage(agent_id=agent_id, turn=turn, role="coding", content=content)


class SpyBackend:
    """Records every request it serves, then delegates."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []
        self._lock = threading.Lock()

    def respond(self, request):
        with self._lock:
            self.requests.append(request)
        return self.inner.respond(request)


def wa_outcome() -> ExecOutcome:
    return ExecOutcome(
        verdict=Verdict.WRONG_ANSWER,
        per_test=(TestResult(index=0, status=Verdict.WRONG_ANSWER),),
        logs="test 0: expected '1', got '2', input ''",
    )


class TestExtractCode:
    def test_no_messages(self):
        assert extract_code([]) is None

    def test_no_fences(self):
        assert extract_code([message("just words"), message("more words")]) is None

    def test_latest_message_wins(self):
        older = message("```python\nold = 1\n```")
        newer = message("```python\nnew = 2\n```")
        block = extract_code([older, newer])
        assert block.source == "new = 2"

    def test_last_block_within_message_wins(self):
        both = message("```python\nfirst\n```\ntext\n```python\nsecond\n```")
        assert extract_code([both]).source == "second"

    def test_scan_skips_messages_without_blocks(self):
        block = extract_code([message("```python\ncode\n```"), message("summary only")])
        assert block.source == "code"

    def test_a_block_with_a_blank_body_is_skipped(self):
        blank = message("```python\n\n```\ntext\n```\n  \t\n```")
        assert extract_code([blank]) is None
        assert extract_code([message("```python\ncode\n```"), blank]).source == "code"
        within = message("```python\nfirst\n```\n```cpp\n\n```")
        assert extract_code([within]) == extract_code([message("```python\nfirst\n```")])

    @pytest.mark.parametrize("label,language", [
        ("python", "python"), ("py", "python"), ("python3", "python"),
        ("PYTHON", "python"), ("", None), ("rust", "rust"),
    ])
    def test_language_normalization(self, label, language):
        block = extract_code([message(f"```{label}\nx\n```")])
        assert block.language == language


class TestTruncateText:
    def test_short_text_unchanged(self):
        assert truncate_text("abc", 10) == "abc"

    def test_exact_length_unchanged(self):
        assert truncate_text("abcde", 5) == "abcde"

    def test_long_text_gets_marker(self):
        out = truncate_text("x" * 50, 10)
        assert out.startswith("x" * 10)
        assert "truncated at 10 characters" in out


class TestBuildObservation:
    def doc(self):
        return parse_topology(PLAN_CODE)

    def test_wrong_answer_feedback(self):
        obs = build_observation(wa_outcome(), self.doc(), time_limit_ms=2000, memory_limit_mb=512)
        assert obs.startswith("The last attempt failed with [WRONG_ANSWER].\n")
        assert "time limit" not in obs
        assert "execution logs:" in obs
        assert "expected '1'" in obs
        assert "difficulty: 1" in obs  # the topology is echoed back
        assert obs.endswith("Revise the topology and emit a corrected fenced yaml block.")

    def test_tle_includes_the_limit(self):
        outcome = ExecOutcome(
            verdict=Verdict.TIME_LIMIT_EXCEEDED,
            per_test=(TestResult(index=0, status=Verdict.TIME_LIMIT_EXCEEDED),),
            logs="",
        )
        obs = build_observation(outcome, self.doc(), time_limit_ms=1500, memory_limit_mb=512)
        assert "time limit: 1500 ms" in obs
        assert "execution logs:\n(none)\n" in obs  # empty logs are named, not omitted

    def test_mle_includes_the_limit(self):
        outcome = ExecOutcome(
            verdict=Verdict.MEMORY_LIMIT_EXCEEDED,
            per_test=(TestResult(index=0, status=Verdict.MEMORY_LIMIT_EXCEEDED),),
            logs="oom",
        )
        obs = build_observation(outcome, self.doc(), time_limit_ms=1500, memory_limit_mb=64)
        assert "memory limit: 64 MB" in obs
        assert "execution logs:\noom\n" in obs

    def test_logs_are_truncated_at_the_cap(self):
        outcome = dataclasses.replace(wa_outcome(), logs="L" * 5000)
        obs = build_observation(outcome, self.doc(), time_limit_ms=2000, memory_limit_mb=512,
                                log_cap=100)
        shown = "L" * 100 + "\n[... truncated at 100 characters]"
        assert f"execution logs:\n{shown}\ntopology used:\n" in obs
        assert "L" * 101 not in obs


class TestValidationObservation:
    def test_no_yaml(self):
        check = check_topology("no fence here")
        obs = build_validation_observation(check)
        assert obs.startswith("The last topology was rejected with [NO_YAML_FOUND].\n")
        assert obs.endswith("Emit a corrected fenced yaml block.")
        assert "execution logs:" not in obs and "topology used:" not in obs

    def test_logic_error_carries_location(self):
        bad = fenced(
            "difficulty: 1\n"
            "steps:\n"
            "  - agents:\n"
            "      - id: a\n"
            "        role: coding\n"
            "        ref: [ghost]\n"
        )
        check = check_topology(bad)
        obs = build_validation_observation(check)
        assert "[YAML_LOGIC_INVALID]" in obs
        assert "detail:" in obs
        assert "location: step 1, agent 'a'" in obs


class TestHistoryPrompt:
    def test_first_turn_is_problem_only(self):
        prompt = render_history_prompt(ECHO, [])
        assert prompt.startswith("Problem echo:")
        assert ECHO.description in prompt
        assert "Produce an improved topology" not in prompt

    def test_after_turns_the_prompt_replays_topology_and_feedback(self):
        runner = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)]),
            ScriptedRoleBackend(solutions={"echo": [WRONG_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=1),
        )
        result = runner.run(ECHO)
        (turn,) = result.trajectory.turns
        prompt = render_history_prompt(ECHO, result.trajectory.turns)
        # The failed turn's topology is shown once, inside its feedback.
        assert prompt == "\n".join([
            "Problem echo:", ECHO.description, "",
            "--- turn 1 ---", "feedback:", turn.observation, "",
            "Produce an improved topology now.",
        ])
        assert "[WRONG_ANSWER]" in prompt
        assert topology_blocks(prompt) == [to_yaml(turn.doc).rstrip("\n")]

    def test_a_passed_turn_from_a_caller_shows_its_topology(self):
        # An episode ends at a pass, so only a caller of its own can render one.
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)]),
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            CountingSandbox(),
            RunConfig(max_turns=1),
        ).run(ECHO)
        (turn,) = result.trajectory.turns
        assert result.status == "PASSED" and turn.observation is None
        prompt = render_history_prompt(ECHO, result.trajectory.turns)
        assert prompt == "\n".join([
            "Problem echo:", ECHO.description, "",
            "--- turn 1 ---", "topology:", to_yaml(turn.doc).rstrip("\n"), "",
            "Produce an improved topology now.",
        ])

    def test_invalid_turn_replays_raw_output(self):
        runner = EpisodeRunner(
            ScriptedPolicy(["no yaml, sorry"]),
            ScriptedRoleBackend(),
            LocalExecutor(),
            RunConfig(max_turns=1),
        )
        result = runner.run(ECHO)
        prompt = render_history_prompt(ECHO, result.trajectory.turns)
        assert "raw output:" in prompt
        assert "no yaml, sorry" in prompt
        assert "[NO_YAML_FOUND]" in prompt


class TestHistoryRendersEachTopologyOnce:
    def test_k_failed_executed_turns_render_k_topologies(self, monkeypatch):
        calls = []
        real_to_yaml = orchestrator.to_yaml
        monkeypatch.setattr(orchestrator, "to_yaml",
                            lambda doc: calls.append(doc) or real_to_yaml(doc))
        policy = PromptSpy(ScriptedPolicy(
            [fenced(PLAN_ONLY), "no yaml", fenced(WIDE), fenced(PLAN_ONLY)]))
        result = EpisodeRunner(policy, ScriptedRoleBackend(), CountingSandbox(),
                               RunConfig(max_turns=4)).run(ECHO)
        executed = [t for t in result.trajectory.turns if t.doc is not None]
        assert len(executed) == 3 and result.status == "FAILED"
        # Each executed topology is rendered once, for its feedback.
        assert calls == [t.doc for t in executed]
        # Each prompt shows every earlier executed topology once: PLAN_ONLY, which
        # turns 1 and 4 both use, is in the last prompt once, for turn 1.
        for k, prompt in enumerate(policy.prompts):
            earlier = [to_yaml(t.doc).rstrip("\n") for t in result.trajectory.turns[:k]
                       if t.doc is not None]
            assert Counter(topology_blocks(prompt)) == Counter(earlier), k
        assert policy.prompts == [render_history_prompt(ECHO, result.trajectory.turns[:k])
                                  for k in range(4)]


class TestPromptTokens:
    def test_prompt_tokens_count_the_policy_prompts_and_the_role_requests(self):
        policy = PromptSpy(ScriptedPolicy([fenced(WIDE), "no yaml", fenced(PLAN_CODE)]))
        roles = SpyBackend(ScriptedRoleBackend(
            solutions={"echo": [WRONG_SOLUTION, WRONG_SOLUTION, ECHO_SOLUTION]}))
        result = EpisodeRunner(policy, roles, CountingSandbox(),
                               RunConfig(max_turns=3)).run(ECHO)
        assert result.status == "PASSED" and len(policy.prompts) == 3
        assert max(len(step.agents) for step in result.trajectory.turns[0].doc.steps) == 2
        assert len(roles.requests) == 5
        # A role request is counted as one text, its system prompt followed by
        # its message contents with nothing between them.
        role_tokens = sum(estimate_tokens(r.system + "".join(p.content for p in r.messages))
                          for r in roles.requests)
        policy_tokens = sum(estimate_tokens(p) for p in policy.prompts)
        assert result.token_usage.prompt_tokens == policy_tokens + role_tokens


class TestEpisodes:
    def test_pass_on_first_turn_stops_early(self):
        sandbox = CountingSandbox()
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)]),  # a second call would exhaust
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            sandbox,
            RunConfig(max_turns=3),
        ).run(ECHO)
        assert result.status == "PASSED"
        assert len(result.trajectory.turns) == 1
        assert result.sandbox_runs == 1 and sandbox.runs == 1
        turn = result.trajectory.turns[0]
        assert turn.outcome.verdict is Verdict.PASSED
        assert turn.observation is None
        assert turn.reward.r_e == 1.5

    def test_wrong_then_fixed_rewards_match_the_oracle(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE), fenced(CROSS_TURN)]),
            ScriptedRoleBackend(solutions={"echo": [WRONG_SOLUTION, ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=2, gamma=1.0),
        ).run(ECHO)
        assert result.status == "PASSED"
        turns = result.trajectory.turns
        assert [t.outcome.verdict for t in turns] == [Verdict.WRONG_ANSWER, Verdict.PASSED]

        # Turn 1: planner+coder chain (v=2, e=1, s=2). Turn 2: tester+fixer with
        # one extra cross-turn listen to the old coder (v=2, e=2, s=2).
        expected = [
            1.0 + float(graph_reward_oracle(2, 1, 2, 1)),
            1.5 + float(graph_reward_oracle(2, 2, 2, 1)),
        ]
        for turn, want in zip(turns, expected):
            assert turn.reward.r_phi == pytest.approx(want, rel=1e-12)
        assert result.trajectory.return_value == pytest.approx(sum(expected), rel=1e-12)
        assert result.trajectory.gamma == 1.0

    def test_cross_turn_reference_sees_the_previous_turn_message(self):
        spy = SpyBackend(ScriptedRoleBackend(
            solutions={"echo": [WRONG_SOLUTION, ECHO_SOLUTION]}))
        EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE), fenced(CROSS_TURN)]),
            spy,
            LocalExecutor(),
            RunConfig(max_turns=2),
        ).run(ECHO)
        by_agent = {(r.agent_id, r.turn): r for r in spy.requests}
        sources = lambda key: [p.source for p in by_agent[key].messages]

        assert sources(("planner", 1)) == ["problem"]
        assert sources(("coder", 1)) == ["problem", "planner (planning)"]
        assert sources(("tester", 2)) == ["problem"]
        # fixer: cross-turn view of the old coder first, then intra-turn tester
        assert sources(("fixer", 2)) == ["problem", "coder (coding, turn 1)",
                                         "tester (testing)"]
        fixer = by_agent[("fixer", 2)]
        cross_part = fixer.messages[1]
        assert WRONG_SOLUTION in cross_part.content

    def test_self_memory_is_fed_back_on_later_turns(self):
        spy = SpyBackend(ScriptedRoleBackend(
            solutions={"echo": [WRONG_SOLUTION, ECHO_SOLUTION]}))
        EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE), fenced(PLAN_CODE)]),
            spy,
            LocalExecutor(),
            RunConfig(max_turns=2),
        ).run(ECHO)
        by_agent = {(r.agent_id, r.turn): r for r in spy.requests}
        coder_turn2 = [p.source for p in by_agent[("coder", 2)].messages]
        assert coder_turn2 == ["problem", "memory (turn 1)", "planner (planning)"]

    def test_no_yaml_twice_never_touches_the_sandbox(self):
        sandbox = CountingSandbox()
        result = EpisodeRunner(
            ScriptedPolicy(["thinking...", "still thinking..."]),
            ScriptedRoleBackend(),
            sandbox,
            RunConfig(max_turns=2),
        ).run(ECHO)
        assert result.status == "FAILED"
        assert result.sandbox_runs == 0 and sandbox.runs == 0
        turns = result.trajectory.turns
        assert [t.reward.r_phi for t in turns] == [-2.0, -2.0]
        assert all(t.validation.error_class is ErrorClass.NO_YAML_FOUND for t in turns)
        assert all(t.doc is None and t.messages == () for t in turns)
        assert result.trajectory.return_value == pytest.approx(-4.0)

    def test_invalid_turn_consumes_the_budget_then_recovery_works(self):
        result = EpisodeRunner(
            ScriptedPolicy(["not yaml", fenced(PLAN_CODE)]),
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=2),
        ).run(ECHO)
        assert result.status == "PASSED"
        turns = result.trajectory.turns
        assert turns[0].validation.ok is False and turns[0].reward.r_phi == -2.0
        assert turns[1].outcome.verdict is Verdict.PASSED

    def test_turn_cap_is_respected(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)] * 3),
            ScriptedRoleBackend(solutions={"echo": [WRONG_SOLUTION] * 3}),
            LocalExecutor(),
            RunConfig(max_turns=3),
        ).run(ECHO)
        assert result.status == "FAILED"
        assert len(result.trajectory.turns) == 3

    def test_no_code_block_is_judged_without_the_sandbox(self):
        sandbox = CountingSandbox()
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_ONLY)]),
            ScriptedRoleBackend(),  # planning emits prose, never code
            sandbox,
            RunConfig(max_turns=1),
        ).run(ECHO)
        assert result.status == "FAILED"
        assert sandbox.runs == 0 and result.sandbox_runs == 0
        turn = result.trajectory.turns[0]
        assert turn.outcome.verdict is Verdict.COMPILATION_ERROR
        assert turn.outcome.logs == NO_CODE_LOG
        assert len(turn.outcome.per_test) == len(ECHO.tests)
        assert turn.reward.r_e == 0.6
        assert NO_CODE_LOG in turn.observation

    def test_missing_backend_is_an_episode_error(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)]),
            {"coding": ScriptedRoleBackend()},  # planning has no backend, no "*"
            LocalExecutor(),
            RunConfig(max_turns=1),
        ).run(ECHO)
        assert result.status == "ERROR"
        assert result.error.startswith("AdapterError:")
        assert "planning" in result.error
        assert result.trajectory.turns == ()

    def test_script_exhaustion_preserves_the_partial_trajectory(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(PLAN_CODE)]),  # turn 2 has no entry
            ScriptedRoleBackend(solutions={"echo": [WRONG_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=2),
        ).run(ECHO)
        assert result.status == "ERROR"
        assert result.error.startswith("ScriptExhausted:")
        turns = result.trajectory.turns
        assert len(turns) == 1
        assert turns[0].outcome.verdict is Verdict.WRONG_ANSWER
        assert result.trajectory.return_value == pytest.approx(turns[0].reward.r_phi)

    def test_wildcard_backend_serves_every_role(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(WIDE)]),
            {"*": ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]})},
            LocalExecutor(),
            RunConfig(max_turns=1),
        ).run(ECHO)
        assert result.status == "PASSED"
        assert [m.agent_id for m in result.trajectory.turns[0].messages] == \
            ["alpha", "beta", "coder"]

    def test_difficulty_fallback_from_problem_then_config(self):
        problem_with = ProblemSpec(id="echo", description="d", tests=ECHO.tests,
                                   difficulty=2)
        result = EpisodeRunner(
            ScriptedPolicy([fenced(NO_DIFFICULTY)]),
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=1),
        ).run(problem_with)
        assert result.trajectory.turns[0].density.difficulty == 2

        result = EpisodeRunner(
            ScriptedPolicy([fenced(NO_DIFFICULTY)]),
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=1, difficulty_fallback=3),
        ).run(ECHO)  # no difficulty on the problem
        assert result.trajectory.turns[0].density.difficulty == 3

    def test_no_difficulty_anywhere_is_a_schema_failure(self):
        result = EpisodeRunner(
            ScriptedPolicy([fenced(NO_DIFFICULTY)]),
            ScriptedRoleBackend(solutions={"echo": [ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=1),
        ).run(ECHO)
        turn = result.trajectory.turns[0]
        assert turn.validation.error_class is ErrorClass.YAML_SCHEMA_INVALID
        assert turn.reward.r_phi == -1.0

    def test_document_order_merge_is_stable_under_scheduling(self):
        def one_run() -> bytes:
            result = EpisodeRunner(
                ScriptedPolicy([fenced(WIDE), fenced(WIDE)]),
                ScriptedRoleBackend(
                    solutions={"echo": [WRONG_SOLUTION, ECHO_SOLUTION]},
                    delay_range=(0.0, 0.02),
                ),
                LocalExecutor(),
                RunConfig(max_turns=2),
            ).run(ECHO)
            return json.dumps(result.to_dict(), sort_keys=True).encode()

        baseline = one_run()
        for _ in range(4):
            assert one_run() == baseline

    def test_trajectory_serialization_shape(self):
        result = EpisodeRunner(
            ScriptedPolicy(["no yaml", fenced(PLAN_CODE), fenced(PLAN_CODE)]),
            ScriptedRoleBackend(solutions={"echo": [WRONG_SOLUTION, WRONG_SOLUTION,
                                                    ECHO_SOLUTION]}),
            LocalExecutor(),
            RunConfig(max_turns=3),
        ).run(ECHO)
        data = result.to_dict()
        assert set(data) == {"problem_id", "status", "trajectory", "token_usage",
                             "sandbox_runs", "error"}
        assert set(data["trajectory"]) == {"gamma", "return", "turns"}
        turns = data["trajectory"]["turns"]
        for turn in turns:
            assert set(turn) == {"turn", "policy_text", "validation", "topology", "density",
                                 "messages", "outcome", "reward", "observation"}
        # The observation is the feedback text the next prompt shows, or null.
        invalid, failed, passed = turns
        assert invalid["observation"] == result.trajectory.turns[0].observation
        assert invalid["observation"].startswith("The last topology was rejected with [NO_YAML_FOUND].")
        assert failed["observation"] == result.trajectory.turns[1].observation
        assert failed["observation"].startswith("The last attempt failed with [WRONG_ANSWER].")
        assert passed["observation"] is None
        assert passed["outcome"]["verdict"] == "PASSED"
        assert json.dumps(data)  # JSON-serializable end to end

    def test_gamma_discounts_the_return(self):
        result = EpisodeRunner(
            ScriptedPolicy(["nope", "nope again"]),
            ScriptedRoleBackend(),
            LocalExecutor(),
            RunConfig(max_turns=2, gamma=0.5),
        ).run(ECHO)
        # Two invalid turns at -2.0 each: -2.0 + 0.5 * -2.0
        assert result.trajectory.return_value == pytest.approx(-3.0)


class TestRunnerConcurrencySafety:
    def test_layer_requests_are_built_before_any_agent_runs(self):
        # If requests were built lazily during execution, a fast sibling could
        # leak its current-turn output into a same-layer request. Detect any
        # same-layer leakage by inspecting what the spy actually received.
        spy = SpyBackend(ScriptedRoleBackend(
            solutions={"echo": [ECHO_SOLUTION]}, delay_range=(0.0, 0.01)))
        EpisodeRunner(
            ScriptedPolicy([fenced(WIDE)]),
            spy,
            LocalExecutor(),
            RunConfig(max_turns=1),
        ).run(ECHO)
        first_layer = {r.agent_id: r for r in spy.requests if r.agent_id in ("alpha", "beta")}
        for request in first_layer.values():
            assert [p.source for p in request.messages] == ["problem"]


TEN_WIDE = "difficulty: 3\nsteps:\n  - agents:\n" + "".join(
    f"      - id: a{i}\n        role: coding\n        ref: []\n" for i in range(10))


class PassingJudge:
    """An in-memory sandbox that passes every candidate."""

    def execute(self, source, language, tests, **limits):
        return ExecOutcome(Verdict.PASSED,
                           tuple(TestResult(i, Verdict.PASSED) for i in range(len(tests))), "")


class InFlight:
    """Counts the calls of ``inner`` in flight, and their peak."""

    def __init__(self, inner):
        self.inner = inner
        self.now = self.peak = 0
        self._lock = threading.Lock()

    def respond(self, request):
        with self._lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            return self.inner.respond(request)
        finally:
            with self._lock:
                self.now -= 1


def ten_wide_runner(roles) -> EpisodeRunner:
    return EpisodeRunner(ScriptedPolicy([fenced(TEN_WIDE)]), roles, PassingJudge(),
                         RunConfig(max_turns=1))


class TestAgentPool:
    DELAY = 0.25

    def delayed_roles(self) -> InFlight:
        return InFlight(ScriptedRoleBackend(solutions={"*": [ECHO_SOLUTION]},
                                            delay_range=(self.DELAY, self.DELAY)))

    def test_a_ten_agent_layer_runs_all_at_once(self):
        roles = self.delayed_roles()
        t0 = time.perf_counter()
        result = ten_wide_runner(roles).run(ECHO)
        elapsed = time.perf_counter() - t0
        assert result.status == "PASSED"
        assert roles.peak == 10
        assert elapsed < 4 * self.DELAY  # one after another would take 10

    @pytest.mark.parametrize("workers", [4, 12])
    def test_concurrent_episodes_overlap_their_layers(self, workers):
        roles = self.delayed_roles()
        problems = [dataclasses.replace(ECHO, id=f"echo{k}") for k in range(workers)]
        policy = ScriptedPolicy({p.id: [fenced(TEN_WIDE)] for p in problems})
        runner = EpisodeRunner(policy, roles, PassingJudge(), RunConfig(max_turns=1))
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=workers) as episodes:  # as `run --workers N`
            results = list(episodes.map(runner.run, problems))
        elapsed = time.perf_counter() - t0
        assert [r.status for r in results] == ["PASSED"] * workers
        assert roles.peak == 10 * workers  # no call waits for a thread
        assert elapsed < 4 * self.DELAY  # one episode after another would take `workers`

    # WIDE's first layer is alpha then beta. One call sleeps before it answers
    # or fails; the first failure in document order is the episode's error.
    @pytest.mark.parametrize("slow, failing, error", [
        ("alpha", {"beta"}, "beta failed"),
        ("alpha", {"alpha", "beta"}, "alpha failed"),
        ("beta", {"alpha"}, "alpha failed"),
    ])
    def test_a_failed_layer_waits_for_every_call(self, slow, failing, error):
        class Backend:
            def __init__(self):
                self.finished = []

            def respond(self, request):
                if request.agent_id == slow:
                    time.sleep(0.2)
                self.finished.append(request.agent_id)
                if request.agent_id in failing:
                    raise AdapterError(f"{request.agent_id} failed")
                return AgentResponse(content="done")

        backend = Backend()
        result = EpisodeRunner(ScriptedPolicy([fenced(WIDE)]), backend, PassingJudge(),
                               RunConfig(max_turns=1)).run(ECHO)
        assert result.status == "ERROR"
        assert result.error == f"AdapterError: {error}"
        assert sorted(backend.finished) == ["alpha", "beta"]  # no call outlives the episode

    def test_a_missing_backend_fails_the_layer_before_any_call(self):
        spy = SpyBackend(ScriptedRoleBackend())
        result = EpisodeRunner(ScriptedPolicy([fenced(WIDE)]), {"retrieval": spy},
                               PassingJudge(), RunConfig(max_turns=1)).run(ECHO)
        assert result.status == "ERROR"
        assert result.error == "AdapterError: no backend configured for role 'planning'"
        assert spy.requests == []

    def test_the_thread_count_stays_flat(self):
        roles = ScriptedRoleBackend(solutions={"*": [ECHO_SOLUTION]})
        for _ in range(5):
            assert ten_wide_runner(roles).run(ECHO).status == "PASSED"
        after_five = threading.active_count()
        for _ in range(45):
            assert ten_wide_runner(roles).run(ECHO).status == "PASSED"
        assert threading.active_count() <= after_five

    def test_each_call_runs_in_its_episodes_context(self):
        episode = contextvars.ContextVar("episode")
        seen = []

        class ContextSpy:
            def respond(self, request):
                seen.append(episode.get(None))
                return AgentResponse(content="ok")

        for tag in ("first", "second"):
            token = episode.set(tag)
            try:
                ten_wide_runner(ContextSpy()).run(ECHO)
            finally:
                episode.reset(token)
        assert seen == ["first"] * 10 + ["second"] * 10

    def test_concurrent_first_layers_build_one_pool(self, monkeypatch):
        built = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                time.sleep(0.01)  # a slow build holds the race window open
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(orchestrator, "_pool_owned", (0, None))
        monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", Recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                pools = list(callers.map(lambda _: orchestrator._agent_pool(), range(64)))
        finally:
            sys.setswitchinterval(interval)
            for pool in built:
                pool.shutdown()
        assert len(built) == 1
        assert all(pool is built[0] for pool in pools)

    def test_a_forked_child_builds_its_own_pool(self):
        roles = ScriptedRoleBackend(solutions={"*": [ECHO_SOLUTION]})
        assert ten_wide_runner(roles).run(ECHO).status == "PASSED"
        assert orchestrator._pool_owned[0] == os.getpid()
        pid = os.fork()
        if pid == 0:  # the child: run one episode on the inherited module state
            code = 1
            try:
                code = 0 if ten_wide_runner(roles).run(ECHO).status == "PASSED" else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's episode hung")
        assert os.waitstatus_to_exitcode(status[1]) == 0
