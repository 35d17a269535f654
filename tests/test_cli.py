"""The command-line surface: payload shapes, exit codes, JSON formatting."""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from oracles import advantages_oracle, graph_reward_oracle

from agentdag.cli import _build_adapters, main
from agentdag.config import load_config
from agentdag.corpus import CorpusRecord, read_corpus, write_corpus
from agentdag.problem import ProblemSpec

VALID_TOPOLOGY = """\
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

DANGLING_TOPOLOGY = """\
difficulty: 1
steps:
  - agents:
      - id: planner
        role: planning
        ref: []
  - agents:
      - id: coder
        role: coding
        ref: [ghost]
"""

CROSS_TURN_TOPOLOGY = """\
difficulty: 1
steps:
  - agents:
      - id: reviewer
        role: testing
        ref: []
  - agents:
      - id: fixer
        role: debugging
        ref: [reviewer, coder]
"""

NO_HEADER_TOPOLOGY = """\
steps:
  - agents:
      - id: solo
        role: coding
        ref: []
"""


def fenced(body: str) -> str:
    return f"plan:\n```yaml\n{body}```\n"


def write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def echo_problem_dict(pid: str = "echo") -> dict:
    return {
        "id": pid,
        "description": "Read one line from stdin and print it back.",
        "tests": [{"input": "hi\n", "expected_output": "hi\n"}],
        "time_limit_ms": 4000,
        "memory_limit_mb": 256,
    }


class TestProblemRecords:
    """A problem's text fields must be JSON strings; ``str`` would read ``null``
    as "None" and ``3`` as "3", text nobody wrote."""

    NOT_STRINGS = [None, 3, 1.5, True, ["x"], {"a": 1}]

    @pytest.mark.parametrize("value", NOT_STRINGS)
    def test_an_id_that_is_no_string_is_malformed(self, value):
        with pytest.raises(ValueError, match="malformed problem record: 'id' must be a string"):
            ProblemSpec.from_dict(dict(echo_problem_dict(), id=value))

    @pytest.mark.parametrize("value", NOT_STRINGS)
    def test_a_description_that_is_no_string_is_malformed(self, value):
        with pytest.raises(ValueError, match="'description' must be a string"):
            ProblemSpec.from_dict(dict(echo_problem_dict(), description=value))

    @pytest.mark.parametrize("value", NOT_STRINGS)
    def test_a_test_input_that_is_no_string_is_malformed(self, value):
        data = dict(echo_problem_dict(), tests=[{"input": value, "expected_output": "hi\n"}])
        with pytest.raises(ValueError, match="'input' must be a string"):
            ProblemSpec.from_dict(data)

    @pytest.mark.parametrize("value", NOT_STRINGS)
    def test_an_expected_output_that_is_no_string_is_malformed(self, value):
        data = dict(echo_problem_dict(), tests=[{"input": "hi\n", "expected_output": value}])
        with pytest.raises(ValueError, match="'expected_output' must be a string"):
            ProblemSpec.from_dict(data)

    @pytest.mark.parametrize("field", ["input", "expected_output"])
    def test_a_test_string_with_a_lone_surrogate_is_malformed(self, field):
        # No program could read or print it: the judge passes text as UTF-8.
        test = dict({"input": "hi\n", "expected_output": "hi\n"}, **{field: "h\ud800"})
        with pytest.raises(ValueError, match="malformed problem record: .*surrogates not allowed"):
            ProblemSpec.from_dict(dict(echo_problem_dict(), tests=[test]))

    @pytest.mark.parametrize("change, reason", [
        ({"id": ""}, "problem id must be non-empty"),
        ({"tests": []}, "problem 'echo' declares no tests"),
        ({"time_limit_ms": 0}, "problem 'echo' has non-positive limits"),
        ({"memory_limit_mb": -1}, "problem 'echo' has non-positive limits"),
    ])
    def test_an_empty_or_unjudgeable_problem_is_malformed(self, change, reason):
        with pytest.raises(ValueError, match=f"^malformed problem record: {reason}$"):
            ProblemSpec.from_dict(dict(echo_problem_dict(), **change))

    def test_string_fields_are_kept_as_written(self):
        data = dict(echo_problem_dict(), id="None", description="",
                    tests=[{"input": "", "expected_output": "3"}])
        problem = ProblemSpec.from_dict(data)
        assert (problem.id, problem.description, problem.tests[0].input,
                problem.tests[0].expected_output) == ("None", "", "", "3")


class TestValidate:
    def test_valid_policy_output(self, tmp_path, capsys):
        path = write(tmp_path, "t.txt", fenced(VALID_TOPOLOGY))
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["class"] == "ok"

    def test_valid_bare_yaml_autodetected(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0
        assert json.loads(out)["class"] == "ok"

    def test_invalid_logic_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", DANGLING_TOPOLOGY)
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["class"] == "YAML_LOGIC_INVALID"
        assert "ghost" in payload["detail"]

    def test_prior_ids_resolve_cross_turn_references(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", CROSS_TURN_TOPOLOGY)
        code, _, _ = run_cli(capsys, "validate", path)
        assert code == 1
        code, out, _ = run_cli(capsys, "validate", path, "--prior-ids", "planner,coder")
        assert code == 0
        assert json.loads(out)["class"] == "ok"

    def test_fallback_difficulty_fills_the_header(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", NO_HEADER_TOPOLOGY)
        code, _, _ = run_cli(capsys, "validate", path)
        assert code == 1
        code, out, _ = run_cli(capsys, "validate", path, "--fallback-difficulty", "2")
        assert code == 0
        assert json.loads(out)["warnings"]  # the backfill is surfaced

    def test_role_pool_restriction(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        code, out, _ = run_cli(capsys, "validate", path, "--role-pool", "planning")
        assert code == 1
        assert json.loads(out)["class"] == "YAML_LOGIC_INVALID"

    def test_forced_policy_mode_requires_a_fence(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        code, out, _ = run_cli(capsys, "validate", path, "--as", "policy")
        assert code == 1
        assert json.loads(out)["class"] == "NO_YAML_FOUND"

    def test_output_is_byte_stable(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        _, first, _ = run_cli(capsys, "validate", path)
        _, second, _ = run_cli(capsys, "validate", path)
        assert first == second

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.yaml"))
        assert code == 2
        assert "error:" in err


class TestScore:
    def test_density_payload_matches_the_oracle(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        code, out, _ = run_cli(capsys, "score", path)
        assert code == 0
        payload = json.loads(out)
        assert (payload["v_count"], payload["e_count"], payload["s"]) == (2, 1, 2)
        want = float(graph_reward_oracle(2, 1, 2, 1))
        assert payload["s_complex"] == pytest.approx(want, rel=1e-12)
        assert "cost" not in payload

    def test_message_tokens_adds_a_cost_block(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        code, out, _ = run_cli(capsys, "score", path, "--message-tokens", "100")
        assert code == 0
        cost = json.loads(out)["cost"]
        # v=2, e=1, prev_v=0: m*(v + v*prev_v + 2e) = 100*(2+0+2)
        assert cost == {"m": 100, "total": 400, "per_agent": 400.0}

    def test_prev_supplies_prior_ids_and_prev_v(self, tmp_path, capsys):
        cross = write(tmp_path, "cross.yaml", CROSS_TURN_TOPOLOGY)
        prev = write(tmp_path, "prev.yaml", VALID_TOPOLOGY)
        code, _, err = run_cli(capsys, "score", cross)
        assert code == 1 and "topology invalid" in err
        code, out, _ = run_cli(capsys, "score", cross, "--prev", prev,
                               "--message-tokens", "10")
        assert code == 0
        payload = json.loads(out)
        assert (payload["v_count"], payload["e_count"]) == (2, 2)
        # v=2, e=2, prev_v=2: 10*(2 + 4 + 4)
        assert payload["cost"]["total"] == 100

    def test_invalid_prev_is_rejected(self, tmp_path, capsys):
        topo = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        prev = write(tmp_path, "prev.yaml", DANGLING_TOPOLOGY)
        code, _, err = run_cli(capsys, "score", topo, "--prev", prev)
        assert code == 1
        assert "--prev topology invalid" in err

    def test_difficulty_flag_backfills(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", NO_HEADER_TOPOLOGY)
        code, out, _ = run_cli(capsys, "score", path, "--difficulty", "3")
        assert code == 0
        assert json.loads(out)["difficulty"] == 3


class TestReward:
    def test_mixed_turns(self, tmp_path, capsys):
        spec = {
            "gamma": 0.5,
            "turns": [
                {"error": "NO_YAML_FOUND"},
                {"verdict": "PASSED", "v_count": 2, "e_count": 1, "s": 2, "difficulty": 1},
            ],
        }
        path = write(tmp_path, "r.json", json.dumps(spec))
        code, out, _ = run_cli(capsys, "reward", path)
        assert code == 0
        payload = json.loads(out)
        r2 = 1.5 + float(graph_reward_oracle(2, 1, 2, 1))
        assert payload["rewards"][0] == -2.0
        assert payload["rewards"][1] == pytest.approx(r2, rel=1e-12)
        assert payload["return"] == pytest.approx(-2.0 + 0.5 * r2, rel=1e-12)
        assert payload["turns"][0]["r_e"] == -2.0
        assert payload["turns"][0]["r_g"] == 0.0

    def test_reads_stdin_when_dash(self, capsys, monkeypatch):
        spec = {"turns": [{"error": "YAML_PARSE_ERROR"}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(spec)))
        code, out, _ = run_cli(capsys, "reward", "-")
        assert code == 0
        assert json.loads(out)["rewards"] == [-1.5]

    def test_seventeen_digit_float_rendering(self, tmp_path, capsys):
        spec = {"gamma": 0.9, "turns": [{"error": "NO_YAML_FOUND"}]}
        path = write(tmp_path, "r.json", json.dumps(spec))
        _, out, _ = run_cli(capsys, "reward", path)
        assert '"gamma": 0.90000000000000002' in out

    def test_missing_or_null_weights_mean_one_one(self, tmp_path, capsys):
        turn = {"verdict": "PASSED", "v_count": 2, "e_count": 1, "s": 2, "difficulty": 1}
        outputs = []
        for extra in ({}, {"weights": None}, {"weights": [1, 1]}, {"weights": {}}):
            path = write(tmp_path, "r.json", json.dumps({"turns": [turn], **extra}))
            code, out, _ = run_cli(capsys, "reward", path)
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1

    def test_wrong_length_weights_are_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", json.dumps({"weights": [1], "turns": []}))
        code, _, err = run_cli(capsys, "reward", path)
        assert code == 2 and "weights must be two numbers" in err

    def test_malformed_input_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", json.dumps({"turns": [{"wrong": 1}]}))
        code, _, err = run_cli(capsys, "reward", path)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("field", ["v_count", "e_count", "s", "difficulty"])
    @pytest.mark.parametrize("value", [True, 2.7])
    def test_an_inexact_count_is_a_usage_error(self, tmp_path, capsys, field, value):
        turn = {"verdict": "PASSED", "v_count": 2, "e_count": 1, "s": 2, "difficulty": 1}
        path = write(tmp_path, "r.json", json.dumps({"turns": [dict(turn, **{field: value})]}))
        code, out, err = run_cli(capsys, "reward", path)
        assert code == 2 and out == ""
        assert "expected an integer" in err

    @pytest.mark.parametrize("extra", [{"gamma": True}, {"weights": [True, 1]},
                                       {"weights": {"execution": False}}],
                             ids=["gamma", "weights", "named-weights"])
    def test_a_boolean_number_is_a_usage_error(self, tmp_path, capsys, extra):
        spec = {"turns": [{"error": "NO_YAML_FOUND"}], **extra}
        code, out, err = run_cli(capsys, "reward", write(tmp_path, "r.json", json.dumps(spec)))
        assert code == 2 and out == ""
        assert "expected a finite number" in err

    def test_non_object_input_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", "[1]")
        code, _, err = run_cli(capsys, "reward", path)
        assert code == 2 and "error: malformed reward input" in err

    def test_unparseable_json_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", "{not json")
        code, _, err = run_cli(capsys, "reward", path)
        assert code == 2 and err.startswith(f"error: {path}: invalid JSON: Expecting")

    @pytest.mark.parametrize("counts, reason", [
        ({"v_count": 0, "e_count": 0, "s": 1}, "v_count must be >= 1"),
        ({"v_count": 2, "e_count": 0, "s": 3}, "s must satisfy 1 <= s <= v_count"),
        ({"v_count": 2, "e_count": -1, "s": 1}, "e_count must be >= 0"),
    ])
    def test_impossible_structure_counts_are_a_usage_error(self, tmp_path, capsys,
                                                           counts, reason):
        turn = dict(counts, verdict="PASSED", difficulty=1)
        path = write(tmp_path, "r.json", json.dumps({"turns": [turn]}))
        code, out, err = run_cli(capsys, "reward", path)
        assert (code, out, err) == (2, "", f"error: {reason}\n")


class TestGrpo:
    def test_advantages_match_the_oracle(self, capsys):
        returns = [1.0, 2.0, 3.0, 4.0]
        code, out, _ = run_cli(capsys, "grpo", "adv", "--returns", json.dumps(returns))
        assert code == 0
        payload = json.loads(out)
        want = [float(a) for a in advantages_oracle(returns, 1e-8)]
        assert payload["advantages"] == pytest.approx(want, rel=1e-12)

    def test_zero_variance_group_gets_zero_advantages(self, capsys):
        code, out, _ = run_cli(capsys, "grpo", "adv", "--returns", "[2, 2, 2]")
        assert code == 0
        assert json.loads(out)["advantages"] == [0.0, 0.0, 0.0]

    def test_eps_std_is_echoed_in_scientific_notation(self, capsys):
        _, out, _ = run_cli(capsys, "grpo", "adv", "--returns", "[1, 2]")
        assert '"eps_std": 1e-08' in out

    def test_non_array_returns_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "grpo", "adv", "--returns", '"oops"')
        assert code == 2 and "JSON array" in err

    def test_boolean_returns_are_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "grpo", "adv", "--returns", "[true, false]")
        assert code == 2 and out == ""
        assert "expected a finite number" in err

    def test_surrogate_identity_case(self, tmp_path, capsys):
        logp = [-0.5, -1.0, -0.25]
        spec = {
            "advantages": [2.0],
            "trajectories": [{"new": logp, "old": logp, "ref": logp}],
        }
        path = write(tmp_path, "s.json", json.dumps(spec))
        code, out, _ = run_cli(capsys, "grpo", "surrogate", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == pytest.approx(2.0, rel=1e-12)
        assert payload["eps_clip"] == pytest.approx(0.2)
        assert payload["kl_estimator"] == "log_ratio"

    def test_flags_override_file_values(self, tmp_path, capsys):
        logp = [-0.5]
        spec = {
            "advantages": [1.0],
            "trajectories": [{"new": logp, "old": logp, "ref": logp}],
            "eps_clip": 0.1,
            "beta": 0.5,
        }
        path = write(tmp_path, "s.json", json.dumps(spec))
        _, out, _ = run_cli(capsys, "grpo", "surrogate", path,
                            "--eps-clip", "0.3", "--kl-pooling", "trajectory")
        payload = json.loads(out)
        assert payload["eps_clip"] == pytest.approx(0.3)
        assert payload["beta"] == pytest.approx(0.5)  # file value survives
        assert payload["kl_pooling"] == "trajectory"

    @pytest.mark.parametrize("field", ["advantages", "new", "old", "ref", "eps_clip", "beta"])
    def test_a_boolean_number_in_surrogate_input_is_a_usage_error(self, tmp_path, capsys,
                                                                   field):
        logp = [-0.5, -1.0]
        spec = {"advantages": [1.0], "trajectories": [{"new": logp, "old": logp, "ref": logp}]}
        if field == "advantages":
            spec["advantages"] = [True]
        elif field in ("eps_clip", "beta"):
            spec[field] = True
        else:
            spec["trajectories"][0][field] = [True, -1.0]
        code, out, err = run_cli(capsys, "grpo", "surrogate",
                                 write(tmp_path, "s.json", json.dumps(spec)))
        assert code == 2 and out == ""
        assert "expected a finite number" in err

    @pytest.mark.parametrize("mask,code", [([True, False], 0), ([True, "false"], 2),
                                           ([1, 0], 2)])
    def test_mask_entries_must_be_json_booleans(self, tmp_path, capsys, mask, code):
        logp = [-0.5, -1.0]
        spec = {"advantages": [1.0],
                "trajectories": [{"new": logp, "old": logp, "ref": logp, "mask": mask}]}
        got, _, err = run_cli(capsys, "grpo", "surrogate",
                              write(tmp_path, "s.json", json.dumps(spec)))
        assert got == code
        assert code == 0 or "mask entries must be true or false" in err

    def test_non_object_trajectory_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", json.dumps({"advantages": [1.0], "trajectories": [1]}))
        code, _, err = run_cli(capsys, "grpo", "surrogate", path)
        assert code == 2 and "error: malformed surrogate input" in err

    def test_invalid_pooling_choice_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", "{}")
        code, _, _ = run_cli(capsys, "grpo", "surrogate", path, "--kl-pooling", "bogus")
        assert code == 2


@pytest.fixture
def run_fixture(tmp_path):
    """Config, bundle, and two echo problems wired for a scripted run."""
    config = write(tmp_path, "config.yaml", "max_turns: 2\n")
    bundle = {
        "policy": {
            "echo": [fenced(VALID_TOPOLOGY)],
            "echo2": [fenced(VALID_TOPOLOGY)],
        },
        "solutions": {"*": ["print(input())"]},
    }
    bundle_path = write(tmp_path, "bundle.json", json.dumps(bundle))
    problem1 = write(tmp_path, "p1.json", json.dumps(echo_problem_dict("echo")))
    problems = write(tmp_path, "rest.jsonl",
                     json.dumps(echo_problem_dict("echo2")) + "\n")
    return {"config": config, "bundle": bundle_path,
            "problem1": problem1, "problems": problems, "tmp": tmp_path}


class TestRun:
    def test_scripted_run_emits_one_json_line_per_problem(self, run_fixture, capsys):
        code, out, err = run_cli(
            capsys, "run",
            "--problem", run_fixture["problem1"],
            "--problems", run_fixture["problems"],
            "--config", run_fixture["config"],
            "--policy", f"scripted:{run_fixture['bundle']}",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert [first["problem_id"], second["problem_id"]] == ["echo", "echo2"]
        assert {first["status"], second["status"]} == {"PASSED"}
        assert "2 episode(s): 2 PASSED" in err

    def test_out_file_appends(self, run_fixture, capsys):
        out_path = run_fixture["tmp"] / "traj.jsonl"
        for _ in range(2):
            code, out, _ = run_cli(
                capsys, "run",
                "--problem", run_fixture["problem1"],
                "--config", run_fixture["config"],
                "--policy", f"scripted:{run_fixture['bundle']}",
                "--out", str(out_path),
            )
            assert code == 0
            assert out == ""  # data goes to the file, not stdout
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == lines[1]  # identical reruns serialize identically

    def test_parallel_workers_preserve_problem_order(self, run_fixture, capsys):
        argv = ("run", "--problem", run_fixture["problem1"],
                "--problems", run_fixture["problems"],
                "--config", run_fixture["config"],
                "--policy", f"scripted:{run_fixture['bundle']}")
        _, sequential, _ = run_cli(capsys, *argv)
        _, parallel, _ = run_cli(capsys, *argv, "--workers", "4")
        assert parallel == sequential

    def test_exhausted_script_surfaces_as_infrastructure_exit(self, run_fixture, capsys):
        bundle = {"policy": {"echo": [fenced(VALID_TOPOLOGY)]},  # nothing for echo2
                  "solutions": {"*": ["print(input())"]}}
        bundle_path = write(run_fixture["tmp"], "short.json", json.dumps(bundle))
        code, out, err = run_cli(
            capsys, "run",
            "--problem", run_fixture["problem1"],
            "--problems", run_fixture["problems"],
            "--config", run_fixture["config"],
            "--policy", f"scripted:{bundle_path}",
        )
        assert code == 3
        statuses = [json.loads(line)["status"] for line in out.strip().split("\n")]
        assert statuses == ["PASSED", "ERROR"]
        assert "episode echo2: ScriptExhausted" in err

    def run_bundle(self, run_fixture, capsys, bundle: dict) -> tuple[int, dict, str]:
        """Runs problem ``echo`` on ``bundle``; the exit code, the episode and stderr."""
        bundle_path = write(run_fixture["tmp"], "bundle2.json", json.dumps(bundle))
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", run_fixture["config"],
                                 "--policy", f"scripted:{bundle_path}")
        (line,) = out.splitlines()
        return code, json.loads(line), err

    @pytest.mark.parametrize("first,language,log", [
        ("", "python", "no fenced code block found in the agent messages"),
        ("  \n", "python", "no fenced code block found in the agent messages"),
        ("print(input())", "cpp", "no toolchain configured for language 'cpp'"),
    ], ids=["empty block", "blank block", "unconfigured language"])
    def test_a_block_the_judge_cannot_run_is_a_compilation_error(self, run_fixture, capsys,
                                                                  first, language, log):
        bundle = {"policy": [fenced(VALID_TOPOLOGY)] * 2,
                  "solutions": {"*": [first, "print(input())"]}, "language": language}
        code, episode, err = self.run_bundle(run_fixture, capsys, bundle)
        assert code == 0, err
        turns = episode["trajectory"]["turns"]
        assert turns[0]["outcome"]["verdict"] == "COMPILATION_ERROR"
        assert turns[0]["outcome"]["logs"] == log
        assert episode["status"] == ("PASSED" if language == "python" else "FAILED")

    def test_lone_surrogates_in_model_output_are_judged_and_written(self, run_fixture, capsys):
        policy = fenced(VALID_TOPOLOGY) + "\ud800"
        bundle = {"policy": [policy, fenced(VALID_TOPOLOGY)],
                  "solutions": {"*": ["print('\udfff')", "print(input())"]}}
        code, episode, err = self.run_bundle(run_fixture, capsys, bundle)
        assert code == 0, err
        first, second = episode["trajectory"]["turns"]
        assert first["policy_text"] == policy
        assert "print('\udfff')" in first["messages"][-1]["content"]
        assert first["outcome"]["verdict"] == "COMPILATION_ERROR"
        assert first["outcome"]["logs"].startswith(
            "compilation failed: SyntaxError: (unicode error) 'utf-8' codec can't decode")
        assert (second["outcome"]["verdict"], episode["status"]) == ("PASSED", "PASSED")

    def test_bad_problems_line_names_the_file_and_line(self, run_fixture, capsys):
        bad = write(run_fixture["tmp"], "bad.jsonl",
                    json.dumps(echo_problem_dict("echo2")) + "\n\n{oops\n")
        code, out, err = run_cli(capsys, "run", "--problems", bad,
                                 "--config", run_fixture["config"],
                                 "--policy", f"scripted:{run_fixture['bundle']}")
        assert code == 2 and out == ""
        assert f"{bad}:3: invalid JSON" in err

    @pytest.mark.parametrize("field", ["time_limit_ms", "memory_limit_mb", "difficulty"])
    @pytest.mark.parametrize("value", [True, 2.9])
    def test_an_inexact_integer_in_a_problem_is_a_usage_error(self, run_fixture, capsys,
                                                              field, value):
        problem = write(run_fixture["tmp"], "inexact.json",
                        json.dumps(dict(echo_problem_dict("echo"), **{field: value})))
        code, out, err = run_cli(capsys, "run", "--problem", problem,
                                 "--config", run_fixture["config"],
                                 "--policy", f"scripted:{run_fixture['bundle']}")
        assert code == 2 and out == ""
        assert "malformed problem record" in err

    def test_no_problems_is_a_usage_error(self, run_fixture, capsys):
        code, _, err = run_cli(capsys, "run", "--config", run_fixture["config"])
        assert code == 2 and "no problems" in err

    @pytest.mark.parametrize("line", ["weights: [1, 2, 3]", "weights: [1, -1]", "eps_clip: 0.2",
                                      "executor: {max_output_bytes: 100.5}", "max_turns: 2.9",
                                      "observation_log_cap: 2.5", "gamma: 1e-3"])
    def test_rejected_config_is_a_usage_error(self, run_fixture, capsys, line):
        config = write(run_fixture["tmp"], "bad.yaml", line + "\n")
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", config,
                                 "--policy", f"scripted:{run_fixture['bundle']}")
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_missing_config_is_a_usage_error(self, run_fixture, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                               "--config", str(run_fixture["tmp"] / "none.yaml"))
        assert code == 2 and "cannot read config" in err

    def test_unknown_policy_spec_is_a_usage_error(self, run_fixture, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                               "--config", run_fixture["config"],
                               "--policy", "telepathy")
        assert code == 2 and "unknown policy spec" in err

    def test_bundle_without_policy_key_is_a_usage_error(self, run_fixture, capsys):
        bad = write(run_fixture["tmp"], "bad.json", json.dumps({"solutions": {}}))
        code, _, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                               "--config", run_fixture["config"],
                               "--policy", f"scripted:{bad}")
        assert code == 2 and "'policy' key" in err

    @pytest.mark.parametrize("delay, reason", [
        ([True, False], "expected a finite number, got True"),
        ([-1, -0.5], "expected 0 <= low <= high, got [-1.0, -0.5]"),
        (["0.1", "0.2"], "expected a number, got '0.1'"),
        ([0, 10 ** 400], f"expected a finite number, got {10 ** 400}"),
    ])
    def test_a_bad_delay_range_is_refused_before_any_episode(self, run_fixture, capsys,
                                                             delay, reason):
        bundle = dict(json.loads(Path(run_fixture["bundle"]).read_text()), delay_range=delay)
        bad = write(run_fixture["tmp"], "bad_delay.json", json.dumps(bundle))
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", run_fixture["config"],
                                 "--policy", f"scripted:{bad}")
        assert code == 2 and out == ""
        assert err == f"error: scripted bundle {bad}: delay_range: {reason}\n"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_fewer_than_one_worker_is_a_usage_error(self, run_fixture, capsys, workers):
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", run_fixture["config"],
                                 "--policy", f"scripted:{run_fixture['bundle']}",
                                 "--workers", workers)
        assert code == 2 and out == ""
        assert err == f"error: --workers must be at least 1, got {workers}\n"

    def test_without_policy_a_scripted_config_is_a_usage_error(self, run_fixture, capsys):
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", run_fixture["config"])
        assert code == 2 and out == ""
        assert err.startswith("error: unknown policy spec 'scripted'")

    def test_without_policy_a_remote_config_builds_remote_adapters(self, tmp_path,
                                                                   monkeypatch):
        from agentdag.adapters import remote

        def no_request(*args, **kwargs):
            raise AssertionError("building the adapters sent a request")

        monkeypatch.setattr(remote.urllib.request, "urlopen", no_request)
        config = load_config(write(tmp_path, "remote.yaml", (
            "policy: {kind: remote, url: 'http://127.0.0.1:9/policy'}\n"
            "roles: {kind: remote, url: 'http://127.0.0.1:9/roles'}\n")))
        policy, roles = _build_adapters(None, config)
        assert isinstance(policy, remote.RemotePolicy)
        assert isinstance(roles, remote.RemoteRoleBackend)
        assert (policy._endpoint, roles._endpoint) == (config.policy, config.roles)

    @pytest.mark.parametrize("text, reason", [
        ("a: " + "[" * 3000 + "]" * 3000,
         "is not valid YAML: document nests too deeply for the YAML loader"),
        ("role_prompts: [a]", "role_prompts must be a mapping of role names to prompts"),
        ("executor: {languages: {python: {run_cmd: [1, 2]}}}",
         "language 'python' run_cmd arguments must all be strings"),
        ("executor: {languages: {python: {run_cmd: []}}}",
         "language 'python' run_cmd must name a program, not be empty"),
    ], ids=["deep", "role_prompts", "run_cmd", "empty_run_cmd"])
    def test_an_unusable_config_is_refused_in_one_line(self, run_fixture, capsys,
                                                       text, reason):
        config = write(run_fixture["tmp"], "bad.yaml", text + "\n")
        code, out, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                                 "--config", config,
                                 "--policy", f"scripted:{run_fixture['bundle']}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith(f"{reason}\n")
        assert err.count("\n") == 1

    def test_remote_policy_needs_urls(self, run_fixture, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", run_fixture["problem1"],
                               "--config", run_fixture["config"],
                               "--policy", "remote")
        assert code == 2 and "url" in err


def corpus_lines(tmp_path) -> str:
    chain = (
        "difficulty: 1\n"
        "steps:\n"
        "  - agents:\n"
        "      - id: {a}\n"
        "        role: planning\n"
        "        ref: []\n"
        "  - agents:\n"
        "      - id: {b}\n"
        "        role: coding\n"
        "        ref: [{a}]\n"
    )
    records = [
        CorpusRecord(id="ok1", problem_id="p", difficulty=None, turn_index=1,
                     yaml_text=chain.format(a="a1", b="a2")),
        CorpusRecord(id="ok2", problem_id="p", difficulty=None, turn_index=1,
                     yaml_text=chain.format(a="b1", b="b2")),
        CorpusRecord(id="dup", problem_id="p", difficulty=None, turn_index=1,
                     yaml_text=chain.format(a="a1", b="a2")),
        CorpusRecord(id="bad", problem_id="p", difficulty=None, turn_index=1,
                     yaml_text="difficulty: ["),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    return str(path)


class TestCorpusCli:
    def test_filter_splits_accepted_from_rejected(self, tmp_path, capsys):
        inp = corpus_lines(tmp_path)
        outp = str(tmp_path / "accepted.jsonl")
        report_path = str(tmp_path / "report.json")
        code, out, err = run_cli(capsys, "corpus", "filter", inp, outp,
                                 "--report", report_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == 4
        assert payload["accepted"] == 2
        assert payload["rejected"]["duplicate"] == 1
        assert payload["rejected"]["syntax"] == 1
        assert [r.id for r in read_corpus(outp)] == ["ok1", "ok2"]
        with open(report_path, encoding="utf-8") as handle:
            assert json.load(handle) == payload
        assert "2/4 records accepted" in err

    def test_filtering_is_idempotent(self, tmp_path, capsys):
        inp = corpus_lines(tmp_path)
        first = str(tmp_path / "first.jsonl")
        second = str(tmp_path / "second.jsonl")
        run_cli(capsys, "corpus", "filter", inp, first)
        code, out, _ = run_cli(capsys, "corpus", "filter", first, second)
        assert code == 0
        payload = json.loads(out)
        assert payload["accepted"] == payload["input"] == 2
        assert sum(payload["rejected"].values()) == 0

    def test_external_validator_flag(self, tmp_path, capsys):
        inp = corpus_lines(tmp_path)
        outp = str(tmp_path / "none.jsonl")
        code, out, _ = run_cli(capsys, "corpus", "filter", inp, outp,
                               "--validator", "python3 -c 'import sys; sys.exit(1)'")
        assert code == 0
        payload = json.loads(out)
        assert payload["accepted"] == 0
        # ok1/ok2 reach the validator and fail as logic; the duplicate and the
        # syntax error are caught by earlier stages and never reach it.
        assert payload["rejected"]["logic"] == 2
        assert payload["rejected"]["duplicate"] == 1

    @pytest.mark.parametrize("command", ["filter", "stats"])
    @pytest.mark.parametrize("validator", ["", "  "])
    def test_a_blank_validator_is_a_usage_error(self, tmp_path, capsys, command, validator):
        inp = corpus_lines(tmp_path)
        outp = tmp_path / "out.jsonl"
        argv = [inp, str(outp)] if command == "filter" else [inp]
        code, out, err = run_cli(capsys, "corpus", command, *argv, "--validator", validator)
        assert code == 2 and out == "" and not outp.exists()
        assert err == "error: --validator must name a program, not be empty\n"

    def test_stats(self, tmp_path, capsys):
        inp = corpus_lines(tmp_path)
        code, out, _ = run_cli(capsys, "corpus", "stats", inp)
        assert code == 0
        payload = json.loads(out)
        assert payload["1"]["count"] == 2
        assert payload["1"]["v_count"] == {"2": 2}

    def test_malformed_corpus_line_is_a_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "broken.jsonl", '{"id": "x"}\n')
        code, _, err = run_cli(capsys, "corpus", "stats", path)
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("line", [
        '{"id": null, "problem_id": "p", "yaml_text": "steps: []"}',
        '{"id": "x", "problem_id": 7, "yaml_text": "steps: []"}',
        '{"id": "x", "problem_id": "p", "yaml_text": null}',
        '{"id": "x", "problem_id": "p", "yaml_text": "steps: []", "prior_id": 3}',
        '{"id": "x", "problem_id": "p", "yaml_text": "steps: []", "difficulty": "2"}',
    ])
    def test_a_record_field_of_the_wrong_type_is_a_usage_error(self, tmp_path, capsys, line):
        path = write(tmp_path, "typed.jsonl", line + "\n")
        code, out, err = run_cli(capsys, "corpus", "filter", path, str(tmp_path / "out.jsonl"))
        assert code == 2 and out == "" and "error: malformed corpus record" in err


# Deeper than the stdlib decoder's stack allows; RFC 8259 section 9 lets a
# parser refuse such a text.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("command", [
        "reward", "grpo adv", "grpo surrogate", "corpus filter", "corpus stats",
        "run --problem", "run --problems", "run --policy",
    ])
    def test_every_reader_refuses_it_in_one_line(self, run_fixture, capsys, command):
        deep = write(run_fixture["tmp"], "deep.json", DEEP_JSON)
        deep_lines = write(run_fixture["tmp"], "deep.jsonl", DEEP_JSON + "\n")
        run = ["run", "--config", run_fixture["config"]]
        argv, where = {
            "reward": (["reward", deep], deep),
            "grpo adv": (["grpo", "adv", "--returns", DEEP_JSON], "--returns"),
            "grpo surrogate": (["grpo", "surrogate", deep], deep),
            "corpus filter": (["corpus", "filter", deep_lines,
                               str(run_fixture["tmp"] / "out.jsonl")], f"{deep_lines}:1"),
            "corpus stats": (["corpus", "stats", deep_lines], f"{deep_lines}:1"),
            "run --problem": (run + ["--problem", deep,
                                     "--policy", f"scripted:{run_fixture['bundle']}"], deep),
            "run --problems": (run + ["--problems", deep_lines,
                                      "--policy", f"scripted:{run_fixture['bundle']}"],
                               f"{deep_lines}:1"),
            "run --policy": (run + ["--problem", run_fixture["problem1"],
                                    "--policy", f"scripted:{deep}"], deep),
        }[command]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {where}: invalid JSON: document nests too deeply for the decoder\n"


class TestUsageSurface:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "transmogrify")[0] == 2

    def test_unknown_flag(self, tmp_path, capsys):
        path = write(tmp_path, "t.yaml", VALID_TOPOLOGY)
        assert run_cli(capsys, "validate", path, "--frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
