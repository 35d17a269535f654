"""Top-level acceptance suite.

Ten checks, one per release gate: exact constant tables, oracle-equivalence on
the scoring and policy math, classification accuracy, end-to-end scripted
episodes, sandbox verdicts, corpus filtering, and the cost model. Each test
enforces its own wall-clock budget and prints a single summary line (visible
with ``pytest -s`` or on failure).
"""

from __future__ import annotations

import json
import random
import statistics
import time

from mpmath import mpf

from oracles import (
    advantages_oracle,
    density_oracle,
    depth_exhaustive,
    graph_reward_oracle,
)
from conftest import CountingSandbox, make_doc, random_strict_dag_doc, random_topology

from agentdag.adapters import LocalExecutor, ScriptedPolicy, ScriptedRoleBackend
from agentdag.config import RunConfig
from agentdag.corpus import CorpusRecord, filter_corpus
from agentdag.dsl import ErrorClass, check_topology
from agentdag.graph import (
    cost_estimate,
    decode_topology,
    density_scores,
    n_max_nodes,
)
from agentdag.orchestrator import EpisodeRunner
from agentdag.problem import ProblemSpec, TestCase
from agentdag.rewards import (
    EXEC_REWARDS,
    YAML_PENALTIES,
    GrpoBatch,
    TrajectoryLogProbs,
    grpo_advantages,
    grpo_surrogate,
    turn_reward,
)
from agentdag.verdicts import Verdict
from agentdag import jsonio

import math


def stamp(number: int, label: str, started: float, budget_s: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, \
        f"[{number}] {label}: {elapsed:.2f}s exceeded the {budget_s:g}s budget"
    print(f"PASS [{number}] {label}: {detail} ({elapsed:.2f}s < {budget_s:g}s)")


def fenced(body: str) -> str:
    return f"```yaml\n{body}```"


# -- 1. reward tables ----------------------------------------------------------

def test_01_reward_tables_are_bit_exact():
    started = time.monotonic()
    assert YAML_PENALTIES[ErrorClass.NO_YAML_FOUND] == -2.0
    assert YAML_PENALTIES[ErrorClass.YAML_PARSE_ERROR] == -1.5
    assert YAML_PENALTIES[ErrorClass.YAML_SCHEMA_INVALID] == -1.0
    assert YAML_PENALTIES[ErrorClass.YAML_LOGIC_INVALID] == -0.5
    assert EXEC_REWARDS[Verdict.WRONG_ANSWER] == 1.0
    assert EXEC_REWARDS[Verdict.TIME_LIMIT_EXCEEDED] == 0.9
    assert EXEC_REWARDS[Verdict.MEMORY_LIMIT_EXCEEDED] == 0.8
    assert EXEC_REWARDS[Verdict.RUNTIME_ERROR] == 0.7
    assert EXEC_REWARDS[Verdict.COMPILATION_ERROR] == 0.6
    assert EXEC_REWARDS[Verdict.PASSED] == 1.5
    # Wiring: a validation failure zeroes the graph component entirely.
    assert turn_reward(ErrorClass.NO_YAML_FOUND).to_dict() == \
        {"r_e": -2.0, "r_g": 0.0, "r_phi": -2.0, "weights": [1.0, 1.0]}
    stamp(1, "reward tables bit-exact", started, 1.0,
          "4 validation penalties + 6 execution rewards + wiring, 11 assertions")


# -- 2. node caps ---------------------------------------------------------------

def test_02_node_cap_per_difficulty():
    started = time.monotonic()
    caps = {difficulty: n_max_nodes(difficulty) for difficulty in (1, 2, 3)}
    assert caps == {1: 4, 2: 7, 3: 10}
    stamp(2, "difficulty node caps", started, 1.0, "{1: 4, 2: 7, 3: 10} exact")


# -- 3. density oracle ----------------------------------------------------------

def _assert_rel(actual: float, expected: mpf, what: str) -> None:
    if expected == 0:
        assert abs(actual) <= 1e-12, f"{what}: {actual} vs 0"
    else:
        err = abs((mpf(actual) - expected) / expected)
        assert err <= mpf("1e-12"), f"{what}: rel err {float(err):.3e}"


def test_03_density_matches_high_precision_oracle():
    started = time.monotonic()
    rng = random.Random(20260816)
    for i in range(1000):
        doc = random_topology(rng, difficulty=(i % 3) + 1)
        dag = decode_topology(doc, None)
        report = density_scores(dag, doc.difficulty)
        want = density_oracle(dag.v_count, dag.e_count, dag.s, doc.difficulty)
        _assert_rel(report.s_node, want["s_node"], f"case {i} s_node")
        _assert_rel(report.s_edge, want["s_edge"], f"case {i} s_edge")
        _assert_rel(report.s_depth, want["s_depth"], f"case {i} s_depth")
        _assert_rel(report.s_complex, want["s_complex"], f"case {i} s_complex")
        _assert_rel(report.raw_density, want["raw_density"], f"case {i} raw_density")
    stamp(3, "density vs 60-digit oracle", started, 10.0,
          "1000 random topologies x 5 quantities, rel err <= 1e-12")


# -- 4. depth law ---------------------------------------------------------------

def test_04_layer_adjacency_forces_full_depth():
    started = time.monotonic()
    rng = random.Random(0xDA61)

    for i in range(500):
        dag = decode_topology(random_strict_dag_doc(rng, in_edge_condition=True), None)
        depth = depth_exhaustive(dag)
        assert depth == dag.s, f"case {i}: adjacency held but depth {depth} != s {dag.s}"

    strict = 0
    for i in range(500):
        dag = decode_topology(random_strict_dag_doc(rng, in_edge_condition=False), None)
        depth = depth_exhaustive(dag)
        assert depth <= dag.s, f"case {i}: depth {depth} exceeds layer count {dag.s}"
        strict += depth < dag.s

    # The canonical gap family: the middle layer is skippable, so every path
    # has two nodes while the graph has three layers.
    witness = decode_topology(make_doc([
        [("a", "planning", [])],
        [("b", "retrieval", [])],
        [("c", "coding", ["a", "b"])],
    ]), None)
    assert witness.s == 3 and depth_exhaustive(witness) == 2
    assert strict >= 1
    stamp(4, "layered-depth law", started, 10.0,
          f"500 adjacency-bound DAGs at full depth, 500 unconstrained <= s "
          f"({strict} strict) + explicit gap witness")


# -- 5. group-relative policy math -----------------------------------------------

def test_05_advantage_standardization_and_surrogate():
    started = time.monotonic()
    rng = random.Random(55_1234)
    for i in range(1000):
        group = [rng.uniform(-12.0, 12.0) for _ in range(8)]
        advantages = grpo_advantages(group)
        assert abs(statistics.fmean(advantages)) <= 1e-9, f"group {i} mean"
        assert abs(statistics.pstdev(advantages) - 1.0) <= 1e-9, f"group {i} std"

    assert grpo_advantages([3.25] * 8) == [0.0] * 8
    batch = GrpoBatch.from_returns([1.0, 2.0, 3.0, 4.0])
    want = [float(a) for a in advantages_oracle([1.0, 2.0, 3.0, 4.0], 1e-8)]
    for got, expected in zip(batch.advantages, want):
        assert abs(got - expected) <= 1e-12

    def traj(new, old, ref):
        return TrajectoryLogProbs(new=tuple(new), old=tuple(old), ref=tuple(ref))

    # Identical policies, clipped single token, and pure-KL micro-cases.
    same = [traj([-1.0, -2.0], [-1.0, -2.0], [-1.0, -2.0])] * 2
    assert abs(grpo_surrogate(same, [1.0, -1.0], eps_clip=0.2, beta=0.0)) <= 1e-12
    clipped = [traj([0.0], [-math.log(2)], [0.0])]
    assert abs(grpo_surrogate(clipped, [1.0], eps_clip=0.2, beta=0.0) - 1.2) <= 1e-12
    kl_only = [traj([0.0], [0.0], [-0.1])]
    assert abs(grpo_surrogate(kl_only, [0.0], eps_clip=0.2, beta=1.0) - (-0.1)) <= 1e-12
    stamp(5, "group-relative policy math", started, 5.0,
          "1000 G=8 groups standardized to 1e-9; zero-variance -> zeros; "
          "3 surrogate micro-cases (0, 1.2, -0.1) at 1e-12")


# -- 6. validator classification --------------------------------------------------

def _validator_fixtures() -> list[tuple[str, ErrorClass | None]]:
    head = "difficulty: 1\nsteps:\n"

    def agent(aid: str, role: str = "coding", ref: str = "[]") -> str:
        return f"  - agents:\n      - id: {aid}\n        role: {role}\n        ref: {ref}\n"

    no_yaml = [
        "",
        "plain prose with no fences",
        "inline ```backticks``` only",
        "an opening fence\n``` but nothing closes it",
        "the plan is to write YAML later.",
    ]
    parse = [
        fenced("difficulty: [1, 2\n"),
        fenced("{\n"),
        fenced('name: "unterminated\n'),
        fenced("a: b: c\n"),
        fenced("difficulty: 1\nsteps: [\n"),
    ]
    schema = [
        fenced("just a scalar\n"),
        fenced("steps:\n" + agent("a")),                       # difficulty missing
        fenced(head + agent("a") + "extra_key: 1\n"),          # unknown key
        fenced("difficulty: 9\nsteps:\n" + agent("a")),        # out-of-range level
        fenced(head.replace("steps:\n", "steps:\n  - step: 2\n    agents:\n"
                            "      - id: a\n        role: coding\n        ref: []\n")),
    ]
    logic = [
        fenced(head + agent("a") + agent("a")),                # duplicate id
        fenced(head + agent("a", role="wizard")),              # unknown role
        fenced(head + agent("a", ref="[b]") + agent("b")),     # step-1 ref
        fenced(head + agent("a") + agent("b", ref="[b]")),     # self reference
        fenced(head + agent("a") + agent("b", ref="[ghost]")),  # dangling ref
    ]
    valid = [
        fenced(head + agent("solo")),
        fenced(head + agent("a", role="planning") + agent("b", ref="[a]")),
        fenced("difficulty: 2\nsteps:\n  - step: 1\n    agents:\n"
               "      - id: a\n        role: planning\n        ref: []\n"
               "  - step: 2\n    agents:\n"
               "      - id: b\n        role: coding\n        ref: [a]\n"),
        fenced(head + agent("a", ref="null")),
        fenced("difficulty: 3\nsteps:\n"
               "  - agents:\n"
               "      - id: a\n        role: planning\n        ref: []\n"
               "      - id: b\n        role: retrieval\n        ref: []\n"
               "  - agents:\n"
               "      - id: c\n        role: coding\n        ref: [a, b]\n"),
    ]
    fixtures: list[tuple[str, ErrorClass | None]] = []
    fixtures += [(text, ErrorClass.NO_YAML_FOUND) for text in no_yaml]
    fixtures += [(text, ErrorClass.YAML_PARSE_ERROR) for text in parse]
    fixtures += [(text, ErrorClass.YAML_SCHEMA_INVALID) for text in schema]
    fixtures += [(text, ErrorClass.YAML_LOGIC_INVALID) for text in logic]
    fixtures += [(text, None) for text in valid]
    return fixtures


def test_06_validator_classifies_every_fixture():
    started = time.monotonic()
    fixtures = _validator_fixtures()
    for index, (text, expected) in enumerate(fixtures):
        result = check_topology(text)
        if expected is None:
            assert result.ok, f"fixture {index} should be valid: {result.detail}"
        else:
            assert not result.ok, f"fixture {index} should be {expected.value}"
            assert result.error_class is expected, \
                f"fixture {index}: {result.error_class} != {expected} ({result.detail})"

    # Precedence: a document carrying flaws from several stages reports the
    # earliest stage — the unknown key wins over the dangling reference, and
    # an unparseable body wins over everything past extraction.
    both = fenced("difficulty: 1\nbogus: 1\nsteps:\n"
                  "  - agents:\n      - id: a\n        role: coding\n        ref: [ghost]\n")
    assert check_topology(both).error_class is ErrorClass.YAML_SCHEMA_INVALID
    garbled = fenced("difficulty: [\nbogus: 1\n")
    assert check_topology(garbled).error_class is ErrorClass.YAML_PARSE_ERROR
    stamp(6, "validator classification", started, 1.0,
          f"{len(fixtures)} fixtures (5 per error class + 5 valid) 100% correct, "
          "precedence honored")


# -- 7. scripted episodes ----------------------------------------------------------

ECHO = ProblemSpec(
    id="echo",
    description="Read one line from stdin and print it back.",
    tests=(TestCase(input="hi\n", expected_output="hi\n"),
           TestCase(input="ok\n", expected_output="ok\n")),
    time_limit_ms=4000,
    memory_limit_mb=256,
)

CHAIN = (
    "difficulty: 1\n"
    "steps:\n"
    "  - agents:\n"
    "      - id: planner\n"
    "        role: planning\n"
    "        ref: []\n"
    "  - agents:\n"
    "      - id: coder\n"
    "        role: coding\n"
    "        ref: [planner]\n"
)

RETRY = (
    "difficulty: 1\n"
    "steps:\n"
    "  - agents:\n"
    "      - id: tester\n"
    "        role: testing\n"
    "        ref: []\n"
    "  - agents:\n"
    "      - id: fixer\n"
    "        role: debugging\n"
    "        ref: [tester, coder]\n"
)

WIDE = (
    "difficulty: 2\n"
    "steps:\n"
    "  - agents:\n"
    "      - id: alpha\n"
    "        role: retrieval\n"
    "        ref: []\n"
    "      - id: beta\n"
    "        role: planning\n"
    "        ref: []\n"
    "  - agents:\n"
    "      - id: coder\n"
    "        role: coding\n"
    "        ref: [alpha, beta]\n"
)


def test_07_scripted_episode_suite():
    started = time.monotonic()

    # (a) a first-turn pass ends the episode immediately.
    sandbox = CountingSandbox()
    result = EpisodeRunner(
        ScriptedPolicy([fenced(CHAIN)]),
        ScriptedRoleBackend(solutions={"echo": ["print(input())"]}),
        sandbox, RunConfig(max_turns=3),
    ).run(ECHO)
    assert result.status == "PASSED"
    assert len(result.trajectory.turns) == 1
    assert sandbox.runs == 1

    # (b) wrong-then-fixed: rewards decompose as execution + density components
    # that match the high-precision oracle, and the undiscounted return is
    # their sum.
    result = EpisodeRunner(
        ScriptedPolicy([fenced(CHAIN), fenced(RETRY)]),
        ScriptedRoleBackend(solutions={"echo": ["print('wrong')", "print(input())"]}),
        LocalExecutor(), RunConfig(max_turns=2, gamma=1.0),
    ).run(ECHO)
    turns = result.trajectory.turns
    assert [t.outcome.verdict for t in turns] == [Verdict.WRONG_ANSWER, Verdict.PASSED]
    want = [1.0 + float(graph_reward_oracle(2, 1, 2, 1)),
            1.5 + float(graph_reward_oracle(2, 2, 2, 1))]
    for turn, expected in zip(turns, want):
        assert abs(turn.reward.r_phi - expected) <= 1e-12 * abs(expected)
    assert abs(result.trajectory.return_value - sum(want)) <= 1e-12 * abs(sum(want))

    # (c) two turns with no YAML at all: fixed penalties, sandbox untouched.
    sandbox = CountingSandbox()
    result = EpisodeRunner(
        ScriptedPolicy(["working on it", "nearly there"]),
        ScriptedRoleBackend(), sandbox, RunConfig(max_turns=2),
    ).run(ECHO)
    assert [t.reward.r_phi for t in result.trajectory.turns] == [-2.0, -2.0]
    assert sandbox.runs == 0 and result.sandbox_runs == 0

    # Determinism: five full reruns with randomized intra-layer delays must
    # serialize to identical bytes.
    def one_run() -> bytes:
        outcome = EpisodeRunner(
            ScriptedPolicy([fenced(WIDE), fenced(WIDE)]),
            ScriptedRoleBackend(solutions={"echo": ["print('wrong')", "print(input())"]},
                                delay_range=(0.0, 0.02)),
            LocalExecutor(), RunConfig(max_turns=2),
        ).run(ECHO)
        return jsonio.dumps(outcome.to_dict()).encode("utf-8")

    baseline = one_run()
    for _ in range(4):
        assert one_run() == baseline
    stamp(7, "scripted episode suite", started, 30.0,
          "early stop, oracle-exact two-turn rewards, yaml-free penalties, "
          "5 byte-identical delayed reruns")


# -- 8. sandbox verdicts ------------------------------------------------------------

def test_08_sandbox_produces_every_verdict():
    started = time.monotonic()
    executor = LocalExecutor()
    tests = (TestCase(input="5\n", expected_output="5\n"),)

    def verdict_of(source: str, *, time_limit_ms: int = 4000,
                   memory_limit_mb: int = 256) -> Verdict:
        return executor.execute(source, "python", tests,
                                time_limit_ms=time_limit_ms,
                                memory_limit_mb=memory_limit_mb).verdict

    assert verdict_of("print(input())") is Verdict.PASSED
    assert verdict_of("print('whatever')") is Verdict.WRONG_ANSWER
    assert verdict_of("while True:\n    pass",
                      time_limit_ms=1000) is Verdict.TIME_LIMIT_EXCEEDED
    assert verdict_of("raise SystemExit(9)") is Verdict.RUNTIME_ERROR
    assert verdict_of("def oops(:\n    pass") is Verdict.COMPILATION_ERROR
    assert verdict_of("x = bytearray(512 * 1024 * 1024)\nprint(5)",
                      memory_limit_mb=64) is Verdict.MEMORY_LIMIT_EXCEEDED
    stamp(8, "sandbox verdict fixtures", started, 60.0, "all six verdicts")


# -- 9. corpus filter ----------------------------------------------------------------

def _corpus_chain(ids: list[str], difficulty: int = 1) -> str:
    roles = ("planning", "coding", "debugging", "testing")
    lines = [f"difficulty: {difficulty}", "steps:"]
    prev = None
    for i, aid in enumerate(ids):
        lines.append("  - agents:")
        lines.append(f"      - id: {aid}")
        lines.append(f"        role: {roles[i % len(roles)]}")
        lines.append(f"        ref: [{prev}]" if prev else "        ref: []")
        prev = aid
    return "\n".join(lines) + "\n"


def test_09_corpus_filter_counts_exactly():
    started = time.monotonic()

    def record(rid: str, text: str) -> CorpusRecord:
        return CorpusRecord(id=rid, problem_id="p", difficulty=None,
                            turn_index=1, yaml_text=text)

    valid = [record(f"ok{i}", _corpus_chain([f"v{i}a", f"v{i}b"], difficulty=(i % 3) + 1))
             for i in range(60)]
    syntax_bad = [record(f"syn{i}", f"difficulty: [broken{i}\n") for i in range(10)]
    logic_bad = [record(f"log{i}", _corpus_chain([f"l{i}a"])
                        .replace("ref: []", f"ref: [missing{i}]"))
                 for i in range(10)]
    duplicates = [record(f"dup{i}", valid[i].yaml_text) for i in range(10)]
    oversized = [record(f"big{i}", _corpus_chain([f"b{i}{j}" for j in range(5)],
                                                 difficulty=1))
                 for i in range(10)]

    corpus = valid + syntax_bad + logic_bad + duplicates + oversized
    assert len(corpus) == 100
    report, accepted = filter_corpus(corpus)
    data = report.to_dict()
    assert data["accepted"] == 60
    assert [r.id for r in accepted] == [f"ok{i}" for i in range(60)]
    assert data["rejected"] == {"syntax": 10, "schema": 0, "logic": 10,
                                "duplicate": 10, "density_band": 10}

    refiltered, again = filter_corpus(accepted)
    assert refiltered.accepted_count == 60
    assert sum(refiltered.to_dict()["rejected"].values()) == 0
    assert again == accepted
    stamp(9, "corpus filter", started, 5.0,
          "100 records -> exactly 60 accepted; per-reason counts exact; "
          "refilter rejects 0")


# -- 10. cost model ------------------------------------------------------------------

def test_10_cost_model_fixtures():
    started = time.monotonic()
    # Three agents, two edges, three agents in the previous turn, m=100:
    # 100 * (3 + 3*3 + 2*2) = 1600.
    fan_out = decode_topology(make_doc([
        [("a", "planning", [])],
        [("b", "coding", ["a"]), ("c", "testing", ["a"])],
    ]), None)
    estimate = cost_estimate(fan_out, prev_v_count=3, message_tokens=100)
    assert estimate.total == 1600
    assert isinstance(estimate.total, int)

    # Per-agent average: 100 * (1 + 3 + 2*3/3) = 600 on a three-edge chain.
    chain = decode_topology(make_doc([
        [("a", "planning", [])],
        [("b", "coding", ["a"])],
        [("c", "testing", ["a", "b"])],
    ]), None)
    assert cost_estimate(chain, prev_v_count=0, message_tokens=100).per_agent == 600.0

    # Degenerate single node: total 1 token, per-agent exactly 2.0.
    solo = decode_topology(make_doc([[("a", "coding", [])]]), None)
    estimate = cost_estimate(solo, prev_v_count=0, message_tokens=1)
    assert estimate.total == 1
    assert estimate.per_agent == 2.0
    stamp(10, "turn cost model", started, 1.0,
          "fan-out 1600, chain per-agent 600.0, degenerate (1, 2.0) exact")
