"""Adapters: scripted backends, verdict math, the local executor, the wire client."""

from __future__ import annotations

import ast
import gc
import io
import itertools
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import agentdag
from agentdag.adapters import (
    AdapterError,
    AgentRequest,
    LocalExecutor,
    MessagePart,
    RemotePolicy,
    RemoteRoleBackend,
    SandboxError,
    ScriptExhausted,
    ScriptedPolicy,
    ScriptedRoleBackend,
    estimate_tokens,
    remote,
)
from agentdag.config import AdapterEndpoint, ExecutorConfig, config_from_mapping
from agentdag.problem import ProblemSpec, TestCase
from agentdag.verdicts import (
    FAILURE_PRIORITY,
    Verdict,
    classify_verdict,
    normalize_output,
    outputs_match,
)

ECHO_PROBLEM = ProblemSpec(
    id="echo",
    description="Read one line from stdin and print it back.",
    tests=(
        TestCase(input="hello\n", expected_output="hello\n"),
        TestCase(input="world\n", expected_output="world\n"),
    ),
    time_limit_ms=4000,
    memory_limit_mb=256,
)


def request_for(role: str, turn: int = 1, parts: tuple[MessagePart, ...] = ()) -> AgentRequest:
    return AgentRequest(system="sys", messages=parts, role=role, agent_id=f"{role}_1",
                        turn=turn, problem_id="echo")


class TestScriptedPolicy:
    def test_entries_replay_in_order(self):
        policy = ScriptedPolicy(["first", "second"])
        assert policy.generate(ECHO_PROBLEM, "p1").content == "first"
        assert policy.generate(ECHO_PROBLEM, "p2").content == "second"

    def test_exhaustion_raises(self):
        policy = ScriptedPolicy(["only"])
        policy.generate(ECHO_PROBLEM, "x")
        with pytest.raises(ScriptExhausted):
            policy.generate(ECHO_PROBLEM, "x")

    def test_per_problem_scripts_with_fallback(self):
        other = ProblemSpec(id="other", description="d",
                            tests=(TestCase(input="", expected_output=""),))
        policy = ScriptedPolicy({"echo": ["for echo"], "*": ["generic"]})
        assert policy.generate(ECHO_PROBLEM, "x").content == "for echo"
        assert policy.generate(other, "x").content == "generic"

    def test_unknown_problem_without_fallback(self):
        policy = ScriptedPolicy({"someone_else": ["entry"]})
        with pytest.raises(ScriptExhausted):
            policy.generate(ECHO_PROBLEM, "x")

    def test_usage_is_content_derived(self):
        policy = ScriptedPolicy(["two words"])
        response = policy.generate(ECHO_PROBLEM, "three word prompt")
        assert response.usage.prompt_tokens == 3
        assert response.usage.completion_tokens == 2

    def test_estimate_tokens_is_word_count(self):
        assert estimate_tokens("") == 0
        assert estimate_tokens("a b  c\nd") == 4


class TestScriptedRoleBackend:
    def test_coding_role_wraps_solution_in_fence(self):
        backend = ScriptedRoleBackend(solutions={"echo": ["print(input())"]})
        content = backend.respond(request_for("coding")).content
        assert "```python\nprint(input())\n```" in content

    def test_debugging_role_also_emits_code(self):
        backend = ScriptedRoleBackend(solutions={"*": ["x = 1"]})
        assert "```python\nx = 1\n```" in backend.respond(request_for("debugging")).content

    def test_retrieval_stub(self):
        backend = ScriptedRoleBackend()
        assert backend.respond(request_for("retrieval")).content == \
            "no retrieval context available"

    def test_other_roles_emit_deterministic_template(self):
        backend = ScriptedRoleBackend()
        parts = (MessagePart(source="problem", content="p"),)
        first = backend.respond(request_for("planning", parts=parts))
        second = backend.respond(request_for("planning", parts=parts))
        assert first.content == second.content
        assert "planning_1" in first.content
        assert "turn 1" in first.content

    def test_solutions_index_by_turn_and_repeat_last(self):
        backend = ScriptedRoleBackend(solutions={"*": ["v1", "v2"]})
        assert "v1" in backend.respond(request_for("coding", turn=1)).content
        assert "v2" in backend.respond(request_for("coding", turn=2)).content
        assert "v2" in backend.respond(request_for("coding", turn=9)).content

    def test_message_overrides_take_precedence(self):
        backend = ScriptedRoleBackend(message_overrides={"coding": "custom text"})
        assert backend.respond(request_for("coding")).content == "custom text"

    def test_missing_solution_yields_no_fence(self):
        backend = ScriptedRoleBackend()
        content = backend.respond(request_for("coding")).content
        assert "```" not in content

    def test_delay_does_not_change_content(self):
        fast = ScriptedRoleBackend(solutions={"*": ["ok"]})
        slow = ScriptedRoleBackend(solutions={"*": ["ok"]}, delay_range=(0.0, 0.01))
        req = request_for("coding")
        assert fast.respond(req).content == slow.respond(req).content


class TestVerdictClassification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_over_all_combinations(self, n):
        # The aggregation rule, restated independently: all-pass wins, else the
        # first class present in CE > TLE > MLE > RE > WA order.
        priority = (Verdict.COMPILATION_ERROR, Verdict.TIME_LIMIT_EXCEEDED,
                    Verdict.MEMORY_LIMIT_EXCEEDED, Verdict.RUNTIME_ERROR,
                    Verdict.WRONG_ANSWER)
        for combo in itertools.product(tuple(Verdict), repeat=n):
            verdict = classify_verdict(combo)
            failing = {s for s in combo if s is not Verdict.PASSED}
            if not failing:
                assert verdict is Verdict.PASSED
            else:
                assert verdict is next(c for c in priority if c in failing)

    def test_priority_constant_shape(self):
        assert FAILURE_PRIORITY == (
            Verdict.COMPILATION_ERROR, Verdict.TIME_LIMIT_EXCEEDED,
            Verdict.MEMORY_LIMIT_EXCEEDED, Verdict.RUNTIME_ERROR, Verdict.WRONG_ANSWER,
        )

    def test_empty_statuses_rejected(self):
        with pytest.raises(ValueError):
            classify_verdict([])

    def test_position_does_not_matter(self):
        a = classify_verdict([Verdict.WRONG_ANSWER, Verdict.TIME_LIMIT_EXCEEDED])
        b = classify_verdict([Verdict.TIME_LIMIT_EXCEEDED, Verdict.WRONG_ANSWER])
        assert a is b is Verdict.TIME_LIMIT_EXCEEDED


class TestOutputComparison:
    @pytest.mark.parametrize("actual,expected,match", [
        ("42\n", "42", True),
        ("42   \n", "42", True),
        ("42\n\n\n", "42", True),
        ("a \nb\t\n", "a\nb", True),
        ("a\r\n", "a\n", True),
        (" 42", "42", False),          # leading whitespace is significant
        ("a\n\nb", "a\nb", False),     # interior blank lines are significant
        ("A", "a", False),
        ("4 2", "42", False),
    ])
    def test_fixtures(self, actual, expected, match):
        assert outputs_match(actual, expected) is match

    @given(st.text(max_size=200))
    def test_normalize_is_idempotent_and_reflexive(self, text):
        once = normalize_output(text)
        assert normalize_output(once) == once
        assert outputs_match(text, text)

    @given(st.text(max_size=120))
    def test_trailing_newlines_never_matter(self, text):
        assert outputs_match(text + "\n\n", text)


class TestLocalExecutor:
    def run_source(self, source: str, problem: ProblemSpec = ECHO_PROBLEM, **kwargs):
        executor = LocalExecutor()
        return executor.execute(source, "python", problem.tests,
                                time_limit_ms=kwargs.get("time_limit_ms", problem.time_limit_ms),
                                memory_limit_mb=kwargs.get("memory_limit_mb", problem.memory_limit_mb))

    def test_passed(self):
        outcome = self.run_source("print(input())")
        assert outcome.verdict is Verdict.PASSED
        assert [t.status for t in outcome.per_test] == [Verdict.PASSED, Verdict.PASSED]
        assert "all 2 tests passed" in outcome.logs

    def test_wrong_answer_with_diff_logs(self):
        outcome = self.run_source("print('hello')")
        assert outcome.verdict is Verdict.WRONG_ANSWER
        assert [t.status for t in outcome.per_test] == [Verdict.PASSED, Verdict.WRONG_ANSWER]
        assert "expected" in outcome.logs and "'world'" in outcome.logs
        assert outcome.per_test[1].actual_prefix.startswith("hello")

    def test_time_limit_exceeded(self):
        outcome = self.run_source("while True:\n    pass", time_limit_ms=1000)
        assert outcome.verdict is Verdict.TIME_LIMIT_EXCEEDED
        assert "time limit exceeded (1000 ms)" in outcome.logs

    def test_memory_limit_exceeded(self):
        outcome = self.run_source("x = bytearray(512 * 1024 * 1024)\nprint('done')",
                                  memory_limit_mb=64)
        assert outcome.verdict is Verdict.MEMORY_LIMIT_EXCEEDED
        assert "memory limit exceeded (64 MB)" in outcome.logs

    def test_runtime_error(self):
        outcome = self.run_source("import sys\nsys.stderr.write('boom')\nsys.exit(3)")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "exit 3" in outcome.logs and "boom" in outcome.logs

    def test_compilation_error_marks_every_test(self):
        outcome = self.run_source("def broken(:\n    pass")
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert [t.status for t in outcome.per_test] == \
            [Verdict.COMPILATION_ERROR, Verdict.COMPILATION_ERROR]
        assert "compilation failed" in outcome.logs

    def test_all_tests_run_even_after_a_failure(self):
        # First test fails with RE, second passes: both statuses are recorded.
        source = (
            "line = input()\n"
            "if line == 'hello':\n"
            "    raise RuntimeError('no greetings')\n"
            "print(line)\n"
        )
        outcome = self.run_source(source)
        assert [t.status for t in outcome.per_test] == [Verdict.RUNTIME_ERROR, Verdict.PASSED]
        assert outcome.verdict is Verdict.RUNTIME_ERROR

    def test_verdict_matches_classifier(self):
        outcome = self.run_source("print('hello')")
        assert outcome.verdict is classify_verdict([t.status for t in outcome.per_test])

    def test_stdin_routing_per_test(self):
        problem = ProblemSpec(
            id="sum2", description="sum two ints",
            tests=(TestCase(input="1 2\n", expected_output="3\n"),
                   TestCase(input="10 -4\n", expected_output="6\n")),
        )
        outcome = self.run_source("a, b = map(int, input().split())\nprint(a + b)", problem)
        assert outcome.verdict is Verdict.PASSED

    def test_empty_source_is_infrastructure_error(self):
        with pytest.raises(SandboxError):
            LocalExecutor().execute("   ", "python", ECHO_PROBLEM.tests,
                                    time_limit_ms=1000, memory_limit_mb=64)

    def test_no_tests_is_infrastructure_error(self):
        with pytest.raises(SandboxError):
            LocalExecutor().execute("print(1)", "python", (),
                                    time_limit_ms=1000, memory_limit_mb=64)

    def test_unknown_language_is_infrastructure_error(self):
        with pytest.raises(SandboxError):
            LocalExecutor().execute("print(1)", "cobol", ECHO_PROBLEM.tests,
                                    time_limit_ms=1000, memory_limit_mb=64)

    def test_default_language_from_config(self):
        executor = LocalExecutor(ExecutorConfig())
        outcome = executor.execute("print(input())", None, ECHO_PROBLEM.tests,
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED


def live_session_members(sid: int) -> list[int]:
    """Pids of the processes in session ``sid`` that have not exited."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we looked
            continue
        fields = stat.rsplit(")", 1)[1].split()
        state, session = fields[0], int(fields[3])
        if session == sid and state not in ("Z", "X"):
            members.append(int(entry))
    return members


class TestJudgeIsolation:
    """Output bounds, leftover processes, and what a candidate sees."""

    def test_flooding_program_keeps_the_judge_memory_bounded(self):
        # The judge runs in a child interpreter, so its peak RSS is its own.
        script = (
            "import resource\n"
            "from agentdag.adapters import LocalExecutor\n"
            "from agentdag.problem import TestCase\n"
            "flood = 'import sys\\nwhile True:\\n    sys.stdout.write(\"x\" * 65536)\\n'\n"
            "outcome = LocalExecutor().execute(flood, 'python', [TestCase('', '')],\n"
            "                                  time_limit_ms=300, memory_limit_mb=256)\n"
            "print(outcome.verdict.value,\n"
            "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        assert proc.returncode == 0, proc.stderr
        verdict, max_rss_kb = proc.stdout.split()
        assert verdict == "TIME_LIMIT_EXCEEDED"
        assert int(max_rss_kb) < 100 * 1024

    def test_output_past_the_cap_is_clipped_and_does_not_block(self):
        executor = LocalExecutor(ExecutorConfig(max_output_bytes=1000))
        outcome = executor.execute("print('x' * 300000)", "python",
                                   [TestCase(input="", expected_output="x")],
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.WRONG_ANSWER
        assert "'" + "x" * 200 + "…'" in outcome.logs  # clipped for the log too
        assert outcome.per_test[0].actual_prefix == "x" * 160

    def test_undecodable_output_is_judged_not_raised(self):
        source = "import sys\nsys.stdout.buffer.write(b'\\xff\\r\\n')\n"
        outcome = LocalExecutor().execute(source, "python",
                                          [TestCase(input="", expected_output="x")],
                                          time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.WRONG_ANSWER
        assert outcome.per_test[0].actual_prefix == "\ufffd\n"

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
    def test_leftover_child_is_killed_and_does_not_hold_the_verdict(self, tmp_path):
        report = tmp_path / "session"
        source = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(3)'])\n"
            f"open({str(report)!r}, 'w').write(f'{{os.getsid(0)}} {{child.pid}}')\n"
            "print(input())\n"
        )
        started = time.monotonic()
        outcome = LocalExecutor().execute(source, "python",
                                          [TestCase(input="hi\n", expected_output="hi\n")],
                                          time_limit_ms=1000, memory_limit_mb=256)
        elapsed = time.monotonic() - started
        assert outcome.verdict is Verdict.PASSED
        assert elapsed < 0.7
        sid, child_pid = map(int, report.read_text().split())
        assert sid != os.getsid(0)  # the candidate led a session of its own
        deadline = time.monotonic() + 1  # well before the child's sleep ends
        while live_session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_session_members(sid) == []

    def test_candidate_runs_in_the_workdir_with_a_minimal_environment(self, monkeypatch):
        monkeypatch.setenv("PYTHONPATH", "/nowhere")
        monkeypatch.setenv("AGENTDAG_TEST_KEY", "secret")
        monkeypatch.setenv("LANG", "C.UTF-8")
        source = ("import os\n"
                  "print(os.getcwd() == os.path.dirname(__file__))\n"
                  "print(sorted(os.environ))\n")
        outcome = LocalExecutor().execute(source, "python",
                                          [TestCase(input="", expected_output="")],
                                          time_limit_ms=4000, memory_limit_mb=256)
        in_workdir, env_line = outcome.per_test[0].actual_prefix.splitlines()
        assert in_workdir == "True"
        keys = set(ast.literal_eval(env_line))
        assert {"PATH", "LANG"} <= keys <= {"PATH", "LANG", "LC_CTYPE"}


class TestDefaultPythonCommand:
    """The default python run_cmd: no site, but a script's usual surroundings."""

    def judge(self, source: str, stdin: str = "", expected: str = ""):
        return LocalExecutor().execute(source, "python",
                                       [TestCase(input=stdin, expected_output=expected)],
                                       time_limit_ms=4000, memory_limit_mb=256)

    @pytest.mark.parametrize("stop", ["exit()", "quit()", "exit(0)", "raise SystemExit"])
    def test_exit_and_quit_end_a_site_free_program(self, stop):
        source = ("import sys\n"
                  "print(sys.flags.no_site, sys.flags.isolated, input())\n"
                  f"{stop}\n"
                  "print('unreachable')\n")
        outcome = self.judge(source, stdin="ok\n", expected="1 1 ok\n")
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    @pytest.mark.parametrize("stop,code", [("exit(3)", 3), ("quit(2)", 2), ("exit('bye')", 1)])
    def test_exit_codes_are_kept(self, stop, code):
        outcome = self.judge(f"import sys\nsys.flags.no_site or sys.exit(9)\n{stop}\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert f"runtime error (exit {code})" in outcome.logs

    def test_runs_as_main_with_the_source_as_argv0(self):
        source = ("import sys\n"
                  "print(__name__, sys.argv == [__file__], sys.argv[0].endswith('main.py'))\n"
                  "import __main__\n"
                  "print(__main__.__name__, __main__.__file__ == __file__)\n")
        outcome = self.judge(source, expected="__main__ True True\n__main__ True\n")
        assert outcome.verdict is Verdict.PASSED, outcome.per_test[0].actual_prefix

    def test_recursion_reaches_as_deep_as_in_a_plain_script(self, tmp_path):
        script = tmp_path / "main.py"
        for depth in range(994, 1000):
            source = ("def down(n):\n"
                      "    return 0 if n == 0 else 1 + down(n - 1)\n"
                      f"print(down({depth}))\n")
            script.write_text(source, encoding="utf-8")
            plain = subprocess.run([sys.executable, str(script)], capture_output=True,
                                   timeout=30)
            judged = self.judge(source, expected=f"{depth}\n")
            assert (judged.verdict is Verdict.PASSED) == (plain.returncode == 0), depth

    def test_traceback_reads_as_for_a_plain_script(self, tmp_path):
        source = ("def half(n):\n"
                  "    return 1 // n\n"
                  "print(half(int(input())))\n")
        outcome = self.judge(source, stdin="0\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "<string>" not in outcome.logs
        logged = outcome.logs.split("stderr: ", 1)[1]

        script = tmp_path / "main.py"
        script.write_text(source, encoding="utf-8")
        plain = subprocess.run([sys.executable, str(script)], input="0\n", capture_output=True,
                               text=True, timeout=30)
        assert plain.returncode == 1

        def lines(text: str) -> list[str]:
            return re.sub(r'File "[^"]*main\.py"', 'File "main.py"', text.strip()).splitlines()

        assert lines(logged) == lines(plain.stderr)
        assert lines(logged)[-1] == "ZeroDivisionError: integer division or modulo by zero"

    def test_site_packages_are_out_of_reach_unless_the_command_is_overridden(self):
        pytest.importorskip("yaml")  # installed for the judge, not for candidates
        source = "import yaml\nprint('loaded')\n"
        outcome = self.judge(source, expected="loaded\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "ModuleNotFoundError: No module named 'yaml'" in outcome.logs

        plain = {"python": {"run_cmd": ["python3", "{src}"], "source_name": "main.py"}}
        config = config_from_mapping({"executor": {"languages": plain}})
        outcome = LocalExecutor(config.executor).execute(
            source, "python", [TestCase(input="", expected_output="loaded\n")],
            time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs


def executor_for(languages: dict) -> LocalExecutor:
    return LocalExecutor(config_from_mapping({"executor": {"languages": languages}}).executor)


# The same program run by exec, not in a fork from the judge harness.
EXEC_PYTHON = {"python": {"run_cmd": ["python3", "-I", "-S", "{src}"], "source_name": "main.py"}}


class TestJudgeVerdicts:
    """Verdicts come from how the program ended, not from its stderr text."""

    def judge(self, source: str, executor: LocalExecutor | None = None, **limits):
        return (executor or LocalExecutor()).execute(
            source, "python", [TestCase(input="", expected_output="ok\n")],
            time_limit_ms=limits.get("time_limit_ms", 4000),
            memory_limit_mb=limits.get("memory_limit_mb", 256))

    def test_a_sigkill_the_judge_did_not_send_is_a_runtime_error(self):
        outcome = self.judge("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "runtime error (exit -9)" in outcome.logs

    def test_memory_error_text_on_stderr_is_a_runtime_error(self):
        outcome = self.judge("import sys\nsys.stderr.write('MemoryError\\n')\nsys.exit(1)\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "runtime error (exit 1)" in outcome.logs

    def test_an_uncaught_memory_error_is_memory_limit_exceeded(self):
        outcome = self.judge("raise MemoryError\n")
        assert outcome.verdict is Verdict.MEMORY_LIMIT_EXCEEDED
        assert "memory limit exceeded (256 MB)" in outcome.logs

    def test_a_memory_error_the_program_handles_is_not_a_memory_verdict(self):
        source = ("try:\n"
                  "    x = bytearray(512 * 1024 * 1024)\n"
                  "except MemoryError:\n"
                  "    print('ok')\n")
        assert self.judge(source, memory_limit_mb=64).verdict is Verdict.PASSED

    def test_the_exec_path_keeps_the_stderr_rule(self):
        executor = executor_for(EXEC_PYTHON)
        text = self.judge("import sys\nsys.stderr.write('MemoryError\\n')\nsys.exit(1)\n",
                          executor)
        assert text.verdict is Verdict.MEMORY_LIMIT_EXCEEDED
        real = self.judge("x = bytearray(512 * 1024 * 1024)\n", executor, memory_limit_mb=64)
        assert real.verdict is Verdict.MEMORY_LIMIT_EXCEEDED
        killed = self.judge("import os, signal\nos.kill(os.getpid(), signal.SIGKILL)\n",
                            executor)
        assert killed.verdict is Verdict.RUNTIME_ERROR

    def test_a_command_that_cannot_start_is_an_infrastructure_error(self):
        executor = executor_for({"python": {"run_cmd": ["/nonexistent/agentdag-run", "{src}"]}})
        with pytest.raises(SandboxError, match="failed to launch candidate program"):
            self.judge("print('ok')", executor)


class TestJudgeHarness:
    """One harness process judges all tests of a candidate: what it keeps from
    a plain run, and what happens when it does not finish."""

    def judge(self, source: str, stdins: list[str], expected: str = "", **limits):
        tests = [TestCase(input=stdin, expected_output=expected) for stdin in stdins]
        return LocalExecutor().execute(source, "python", tests,
                                       time_limit_ms=limits.get("time_limit_ms", 4000),
                                       memory_limit_mb=256)

    def test_a_mutation_in_one_test_is_invisible_in_the_next(self):
        source = ("import builtins, os\n"
                  "print(getattr(builtins, 'marker', None), getattr(os, 'marker', None))\n"
                  "builtins.marker = os.marker = input()\n")
        outcome = self.judge(source, ["a\n", "b\n", "c\n"], expected="None None\n")
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    def test_atexit_and_thread_output_are_kept_as_under_a_plain_run(self, tmp_path):
        source = ("import atexit, threading, time\n"
                  "atexit.register(print, 'at exit')\n"
                  "def late():\n"
                  "    time.sleep(0.05)\n"
                  "    print('thread')\n"
                  "threading.Thread(target=late).start()\n"
                  "print('main')\n")
        script = tmp_path / "main.py"
        script.write_text(source, encoding="utf-8")
        plain = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                               timeout=30)
        assert plain.stdout == "main\nthread\nat exit\n"
        outcome = self.judge(source, [""], expected=plain.stdout)
        assert outcome.verdict is Verdict.PASSED, outcome.per_test[0].actual_prefix

    def test_exit_256_is_status_0(self):
        outcome = self.judge("print('ok')\nexit(256)\n", [""], expected="ok\n")
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    def test_stdin_larger_than_a_pipe_arrives_whole(self):
        data = "".join(f"{i}\n" for i in range(100_000))  # about 590 KB
        assert len(data) > 64 * 1024
        source = "import sys\ndata = sys.stdin.read()\nprint(len(data), data.count('\\n'))\n"
        outcome = self.judge(source, [data], expected=f"{len(data)} 100000\n")
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    def test_each_test_draws_its_own_random_stream(self):
        outcome = self.judge("import random\nprint(random.random())\n", ["", ""])
        first, second = (t.actual_prefix for t in outcome.per_test)
        assert first != second

    def test_the_harness_preloads_no_heavy_modules(self):
        source = ("import sys\n"
                  "print(sorted({'signal', 'enum', 'random', 'threading'} & set(sys.modules)))\n")
        outcome = self.judge(source, [""], expected="[]\n")
        assert outcome.verdict is Verdict.PASSED, outcome.per_test[0].actual_prefix

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
    def test_a_program_that_kills_the_harness_is_judged_not_raised(self, tmp_path):
        report = tmp_path / "session"
        source = ("import os, time\n"
                  "line = input()\n"
                  "if line == 'die':\n"
                  f"    open({str(report)!r}, 'w').write(str(os.getsid(0)))\n"
                  "    os.kill(os.getppid(), 9)\n"
                  "    time.sleep(30)\n"
                  "print(line)\n")
        started = time.monotonic()
        outcome = self.judge(source, ["die\n", "b\n", "c\n"], expected="b\n")
        elapsed = time.monotonic() - started
        assert [t.status for t in outcome.per_test] == [Verdict.RUNTIME_ERROR] * 3
        assert "judge harness ended after 0 of 3 tests (killed by signal 9)" in outcome.logs
        assert elapsed < 3  # far inside the 17 s the judge would wait for the harness
        sid = int(report.read_text())
        deadline = time.monotonic() + 1
        while live_session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_session_members(sid) == []

    def test_results_before_the_harness_died_are_kept(self):
        source = ("import os\n"
                  "line = input()\n"
                  "if line == 'die':\n"
                  "    os.kill(os.getppid(), 9)\n"
                  "print(line)\n")
        outcome = self.judge(source, ["b\n", "x\n", "die\n", "b\n"], expected="b\n")
        assert [t.status for t in outcome.per_test] == [
            Verdict.PASSED, Verdict.WRONG_ANSWER, Verdict.RUNTIME_ERROR, Verdict.RUNTIME_ERROR]
        assert "judge harness ended after 2 of 4 tests" in outcome.logs

    def test_a_harness_that_never_finishes_is_timed_out_by_the_judge(self, monkeypatch):
        from agentdag.adapters import sandbox

        monkeypatch.setattr(sandbox, "_HARNESS_SLACK_S", 0.5)
        source = "import os, signal\nos.kill(os.getppid(), signal.SIGSTOP)\nprint('ok')\n"
        started = time.monotonic()
        outcome = self.judge(source, ["", ""], expected="ok\n", time_limit_ms=250)
        elapsed = time.monotonic() - started
        assert [t.status for t in outcome.per_test] == [Verdict.RUNTIME_ERROR] * 2
        assert "judge harness ended after 0 of 2 tests (timed out after 1 s)" in outcome.logs
        assert elapsed < 3


class TestHarnessWireFormat:
    """The frames between judge and harness, through the harness module's own
    functions, imported in-process."""

    REPLIES = [("pid", 4242), ("result", (0, b"7\n", b"", False)),
               ("result", (None, b"", b"Traceback\n", True)), ("error", "why"), ("end", False)]

    def test_replies_split_at_every_byte_boundary_come_back_whole(self):
        from agentdag.adapters import _harness

        stream = b"".join(_harness.frame(reply) for reply in self.REPLIES)
        feeds = [[stream[:cut], stream[cut:]] for cut in range(len(stream) + 1)]
        feeds.append([stream[i:i + 1] for i in range(len(stream))])
        for feed in feeds:
            buffer, replies = bytearray(), []
            for chunk in feed:
                buffer += chunk
                replies.extend(_harness.split_replies(buffer))
            assert replies == self.REPLIES and buffer == b""

    def test_a_frame_that_does_not_decode_is_taken_off_as_none(self):
        from agentdag.adapters import _harness

        junk = b"\xff\xfe"
        buffer = bytearray(len(junk).to_bytes(8, "little") + junk + _harness.frame(("end", True)))
        assert list(_harness.split_replies(buffer)) == [(None, None), ("end", True)]

    def test_jobs_are_read_back_in_field_order_until_end_of_file(self):
        from agentdag.adapters import _harness

        job = ("workdir", "print(1)", ["a"], [b"1\n", b""], 0.5, 1 << 28, 65537)
        jobs = io.BytesIO(_harness.job_frame(*job) * 2 + _harness.job_frame(*job)[:-1])
        assert _harness.read_job(jobs) == job
        assert _harness.read_job(jobs) == job
        assert not _harness.read_job(jobs)  # a torn frame reads as end of file


def process_state(pid: int) -> str | None:
    """The state letter of process ``pid``, or None once it is reaped."""
    try:
        stat = Path("/proc", str(pid), "stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def wait_until_not_running(pid: int, seconds: float = 5) -> str | None:
    deadline = time.monotonic() + seconds
    while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.02)
    return process_state(pid)


# Prints the pid of the harness that judges it.
PRINT_HARNESS = "import os\nprint(os.getppid())\n"
# Prints its address-space size, in kB.
PRINT_VMSIZE = "print(open('/proc/self/status').read().split('VmSize:')[1].split()[0])\n"


def harness_of(executor: LocalExecutor) -> int:
    return int(judge_one(executor, PRINT_HARNESS).per_test[0].actual_prefix)


def judge_one(executor: LocalExecutor, source: str, language: str = "python", **limits):
    return executor.execute(source, language, [TestCase(input="", expected_output="ok\n")],
                            time_limit_ms=limits.get("time_limit_ms", 4000),
                            memory_limit_mb=256)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
class TestHarnessPool:
    """Harnesses outlive candidates: reused, bounded by the worker cap,
    replaced when they end abnormally, owned by the process that spawned them
    and ended with their executor."""

    def test_successive_executes_are_served_by_one_harness(self):
        executor = LocalExecutor()
        first = harness_of(executor)
        assert [harness_of(executor) for _ in range(3)] == [first] * 3
        assert first != os.getpid()

    def test_a_compile_error_never_reaches_a_harness(self, monkeypatch):
        from agentdag.adapters import sandbox

        jobs = []
        judge = sandbox._Harness.judge

        def counting_judge(harness, job, *args):
            jobs.append(job)
            return judge(harness, job, *args)

        monkeypatch.setattr(sandbox._Harness, "judge", counting_judge)
        executor = LocalExecutor()
        outcome = executor.execute("print(input())", "python",
                                   [TestCase(input=f"{i}\n", expected_output="") for i in range(4)],
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert [t.status for t in outcome.per_test] == [Verdict.WRONG_ANSWER] * 4
        assert len(jobs) == 1
        outcome = judge_one(executor, "def broken(:\n    pass\n")
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert len(jobs) == 1

    def test_concurrent_executes_share_at_most_workers_harnesses(self, tmp_path):
        executor = LocalExecutor(ExecutorConfig(workers=4))
        # Each candidate leaves a file named after its test that holds the
        # pid of its harness; odd candidates answer wrongly.
        report = (f"open(os.path.join({str(tmp_path)!r}, f'{{n}}-{{os.getpid()}}'), 'w')"
                  ".write(str(os.getppid()))\n")
        outcomes = {}

        def judge(k: int) -> None:
            source = ("import os, time\n"
                      "n = int(input())\n"
                      f"{report}"
                      "time.sleep(0.05)\n"
                      f"print(n * n + {k % 2})\n")
            tests = [TestCase(input=f"{10 * k + i}\n", expected_output=f"{(10 * k + i) ** 2}\n")
                     for i in range(2)]
            outcomes[k] = executor.execute(source, "python", tests,
                                           time_limit_ms=4000, memory_limit_mb=256)

        threads = [threading.Thread(target=judge, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert {k: o.verdict for k, o in outcomes.items()} == {
            k: Verdict.WRONG_ANSWER if k % 2 else Verdict.PASSED for k in range(8)}
        reports = list(tmp_path.iterdir())
        assert len(reports) == 16
        harnesses = {int(report.read_text()) for report in reports}
        assert 1 <= len(harnesses) <= 4

    @pytest.mark.parametrize("ending", ["killed", "stopped", "launch failure"])
    def test_a_harness_that_ends_abnormally_is_replaced(self, ending, monkeypatch):
        from agentdag.adapters import sandbox

        monkeypatch.setattr(sandbox, "_HARNESS_SLACK_S", 0.5)
        executor = executor_for({"broken": {"run_cmd": ["/nonexistent/agentdag-run", "{src}"]}})
        first = harness_of(executor)
        if ending == "killed":
            outcome = judge_one(executor, "import os\nos.kill(os.getppid(), 9)\n")
            assert "judge harness ended after 0 of 1 tests (killed by signal 9)" in outcome.logs
        elif ending == "stopped":
            outcome = judge_one(executor, "import os\nos.kill(os.getppid(), 19)\n",
                                time_limit_ms=250)
            assert "judge harness ended after 0 of 1 tests (timed out after 0.75 s)" \
                in outcome.logs
        else:
            with pytest.raises(SandboxError, match="failed to launch candidate program"):
                judge_one(executor, "echo ok", language="broken")
        assert process_state(first) is None  # killed and reaped
        outcome = judge_one(executor, "import os\nprint('ok')\n")
        assert outcome.verdict is Verdict.PASSED, outcome.logs
        second = harness_of(executor)
        assert second != first

    def test_a_forked_judge_spawns_its_own_harness(self):
        executor = LocalExecutor()
        parent_harness = harness_of(executor)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, str(harness_of(executor)).encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            child_harness = int(reader.read())
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert child_harness not in (parent_harness, pid)
        # The fork left the parent's harness alone, and its own harness sees
        # the end of its job pipe once the fork has exited.
        assert harness_of(executor) == parent_harness
        assert wait_until_not_running(child_harness) in (None, "Z")

    def test_two_successive_candidates_each_run_in_their_own_workdir(self):
        executor = LocalExecutor()
        source = ("import os\n"
                  "print(os.getcwd() == os.path.dirname(__file__), os.getppid(), os.getcwd())\n")
        first, second = (judge_one(executor, source).per_test[0].actual_prefix.split()
                         for _ in range(2))
        assert first[0] == second[0] == "True"
        assert first[1] == second[1]  # one harness judged both
        assert first[2] != second[2]

    def test_a_garbage_collected_executor_reaps_its_harness(self):
        executor = LocalExecutor()
        harness = harness_of(executor)
        assert process_state(harness) not in (None, "Z")
        del executor
        gc.collect()
        assert process_state(harness) is None

    def test_a_judge_that_exits_abruptly_leaves_no_harness_running(self):
        script = (
            "import os\n"
            "from agentdag.adapters import LocalExecutor\n"
            "from agentdag.problem import TestCase\n"
            "outcome = LocalExecutor().execute('import os\\nprint(os.getppid())', 'python',\n"
            "                                  [TestCase('', '')], time_limit_ms=4000,\n"
            "                                  memory_limit_mb=256)\n"
            "print(os.getpid(), outcome.per_test[0].actual_prefix, flush=True)\n"
            "os._exit(0)\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        assert proc.returncode == 0, proc.stderr
        judge, harness = map(int, proc.stdout.split())
        assert harness != judge
        assert wait_until_not_running(harness) in (None, "Z")

    def test_a_large_job_leaves_no_footprint_on_later_candidates(self):
        fresh = int(judge_one(LocalExecutor(), PRINT_VMSIZE).per_test[0].actual_prefix)
        executor = LocalExecutor(ExecutorConfig(workers=1))
        big = "x" * (3 << 20)
        outcome = executor.execute("print(len(input()))", "python",
                                   [TestCase(input=big, expected_output=f"{len(big)}\n")] * 5,
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs
        after = int(judge_one(executor, PRINT_VMSIZE).per_test[0].actual_prefix)
        assert after <= fresh + 512


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
class TestExecPath:
    """A command that is not the harness's own interpreter is exec'd in the
    fork, under the same supervision."""

    SH = {"sh": {"run_cmd": ["sh", "{src}"], "source_name": "main.sh"}}

    def judge(self, source: str, expected: str = "", **kwargs):
        executor = LocalExecutor(config_from_mapping({"executor": {
            "languages": self.SH, "max_output_bytes": kwargs.get("cap", 65536)}}).executor)
        return executor.execute(source, "sh", [TestCase(input="hi\n", expected_output=expected)],
                                time_limit_ms=kwargs.get("time_limit_ms", 4000),
                                memory_limit_mb=256)

    def test_passed(self):
        assert self.judge("read line\necho \"$line\"\n", expected="hi\n").verdict \
            is Verdict.PASSED

    def test_time_limit_exceeded(self):
        outcome = self.judge("while :; do :; done\n", time_limit_ms=300)
        assert outcome.verdict is Verdict.TIME_LIMIT_EXCEEDED
        assert "time limit exceeded (300 ms)" in outcome.logs

    def test_output_past_the_cap_is_clipped(self):
        outcome = self.judge("i=0\nwhile [ $i -lt 3000 ]; do echo xxxxxxxxx; i=$((i+1)); done\n",
                             expected="x", cap=1000)
        assert outcome.verdict is Verdict.WRONG_ANSWER
        assert outcome.per_test[0].actual_prefix == ("xxxxxxxxx\n" * 16)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
    def test_leftover_child_is_killed(self, tmp_path):
        report = tmp_path / "session"
        source = f"sleep 3 &\necho $$ > {report}\nread line\necho \"$line\"\n"
        started = time.monotonic()
        outcome = self.judge(source, expected="hi\n", time_limit_ms=1000)
        assert outcome.verdict is Verdict.PASSED
        assert time.monotonic() - started < 0.7
        sid = int(report.read_text())  # the shell leads the session
        deadline = time.monotonic() + 1
        while live_session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_session_members(sid) == []


# -- remote loopback -----------------------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length).decode("utf-8"))
        self.server.requests.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        if self.server.delays:
            time.sleep(self.server.delays.pop(0))
        status = self.server.plan.pop(0) if self.server.plan else 200
        if status != 200:
            data = b"stub failure"
            self.send_response(status)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return
        if self.server.raw_body is not None:
            data = self.server.raw_body
        else:
            content = self.server.reply_fn(body)
            data = json.dumps({
                "choices": [{"message": {"content": content}}],
                "usage": {"prompt_tokens": 7, "completion_tokens": 3},
            }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # keep pytest output clean
        pass


# A completion body with the given JSON content and usage.
REPLY = b'{"choices": [{"message": {"content": %s}}], "usage": %s}'


def _serve(server_class):
    server = server_class(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.plan = []
    server.delays = []  # seconds to stall before answering, one per request
    server.reply_fn = lambda body: "stub reply"
    server.raw_body = None
    # A client that gave up on a stalled answer has closed its end.
    server.handle_error = lambda request, address: None
    # A short poll interval, so that shutdown() does not wait half a second.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server():
    yield from _serve(HTTPServer)


@pytest.fixture
def threading_stub_server():
    """Answers each request on a thread of its own, so a stalled answer does
    not hold up the client's retry."""
    yield from _serve(ThreadingHTTPServer)


def endpoint_for(server: HTTPServer, **kwargs) -> AdapterEndpoint:
    host, port = server.server_address
    return AdapterEndpoint(kind="remote", url=f"http://{host}:{port}/v1/chat",
                           model="test-model", retries=kwargs.pop("retries", 1), **kwargs)


class TopOfEveryDraw:
    """A jitter source that returns the top of each range it is asked for."""

    def __init__(self):
        self.ranges = []

    def uniform(self, low, high):
        self.ranges.append((low, high))
        return high


def test_the_remote_client_sleeps_for_real_between_retries():
    assert remote.sleep is time.sleep


class TestRemoteAdapters:
    @pytest.fixture(autouse=True)
    def waits(self, monkeypatch):
        """The backoff waits the client asks for; none is slept, so a retry
        test takes no longer than it did before retries waited."""
        waits = []
        monkeypatch.setattr(remote, "sleep", waits.append)
        return waits

    def test_the_backoff_bound_doubles_up_to_its_cap(self, stub_server, waits, monkeypatch):
        jitter = TopOfEveryDraw()
        monkeypatch.setattr(remote, "_JITTER", jitter)
        stub_server.plan = [500, 429, 502, 503, 500, 500, 500]
        with pytest.raises(AdapterError, match="after 7 attempts"):
            RemotePolicy(endpoint_for(stub_server, retries=6)).generate(ECHO_PROBLEM, "p")
        bounds = [0.25, 0.5, 1.0, 2.0, 4.0, 4.0]  # and no wait after the last attempt
        assert jitter.ranges == [(0, bound) for bound in bounds]
        assert waits == bounds
        assert len(stub_server.requests) == 7

    def test_each_wait_is_a_uniform_draw_within_its_bound(self, stub_server, waits,
                                                          monkeypatch):
        monkeypatch.setattr(remote, "_JITTER", random.Random(11))
        stub_server.plan = [503] * 8
        response = RemotePolicy(endpoint_for(stub_server, retries=8)).generate(ECHO_PROBLEM, "p")
        assert response.content == "stub reply"
        assert len(waits) == 8 and len(set(waits)) == 8
        for wait, bound in zip(waits, (0.25, 0.5, 1, 2, 4, 4, 4, 4)):
            assert 0 <= wait <= bound

    def test_no_wait_without_a_retry(self, stub_server, waits):
        RemotePolicy(endpoint_for(stub_server, retries=3)).generate(ECHO_PROBLEM, "p")
        stub_server.plan = [400]
        with pytest.raises(AdapterError, match="rejected"):
            RemotePolicy(endpoint_for(stub_server, retries=3)).generate(ECHO_PROBLEM, "p")
        assert waits == []

    def test_policy_round_trip(self, stub_server):
        policy = RemotePolicy(endpoint_for(stub_server), system="be terse")
        response = policy.generate(ECHO_PROBLEM, "HISTORY PROMPT HERE")
        assert response.content == "stub reply"
        assert response.usage.prompt_tokens == 7
        assert response.usage.completion_tokens == 3
        body = stub_server.requests[0]["body"]
        assert body["model"] == "test-model"
        assert body["messages"][0] == {"role": "system", "content": "be terse"}
        assert body["messages"][1]["content"] == "HISTORY PROMPT HERE"
        assert "temperature" in body and "max_tokens" in body

    def test_policy_without_system_prompt(self, stub_server):
        RemotePolicy(endpoint_for(stub_server)).generate(ECHO_PROBLEM, "p")
        body = stub_server.requests[0]["body"]
        assert [m["role"] for m in body["messages"]] == ["user"]

    def test_role_backend_tags_each_part_with_its_source(self, stub_server):
        backend = RemoteRoleBackend(endpoint_for(stub_server))
        request = request_for("planning", parts=(
            MessagePart(source="problem", content="solve it"),
            MessagePart(source="retr_1 (retrieval)", content="notes"),
        ))
        backend.respond(request)
        body = stub_server.requests[0]["body"]
        assert body["messages"][0] == {"role": "system", "content": "sys"}
        assert body["messages"][1]["content"] == "[problem] solve it"
        assert body["messages"][2]["content"] == "[retr_1 (retrieval)] notes"

    def test_retry_recovers_from_one_server_error(self, stub_server):
        stub_server.plan = [500]
        policy = RemotePolicy(endpoint_for(stub_server, retries=2))
        assert policy.generate(ECHO_PROBLEM, "p").content == "stub reply"
        assert len(stub_server.requests) == 2

    def test_retries_exhausted_raises_adapter_error(self, stub_server):
        stub_server.plan = [500, 500, 500]
        policy = RemotePolicy(endpoint_for(stub_server, retries=2))
        with pytest.raises(AdapterError):
            policy.generate(ECHO_PROBLEM, "p")

    def test_rate_limit_is_retried(self, stub_server):
        stub_server.plan = [429]
        policy = RemotePolicy(endpoint_for(stub_server, retries=1))
        assert policy.generate(ECHO_PROBLEM, "p").content == "stub reply"
        assert len(stub_server.requests) == 2

    def test_client_error_fails_without_retry(self, stub_server):
        stub_server.plan = [403]
        policy = RemotePolicy(endpoint_for(stub_server, retries=3))
        with pytest.raises(AdapterError):
            policy.generate(ECHO_PROBLEM, "p")
        assert len(stub_server.requests) == 1

    def test_bearer_auth_and_env_override(self, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "from-env")
        endpoint = endpoint_for(stub_server, api_key="from-file", api_key_env="STUB_KEY")
        RemotePolicy(endpoint).generate(ECHO_PROBLEM, "p")
        assert stub_server.requests[0]["auth"] == "Bearer from-env"
        assert "STUB_KEY" in os.environ

    @pytest.mark.parametrize("raw", [b"not json at all", b'{"no": "choices"}',
                                     b'{"choices": []}',
                                     REPLY % (b'"x"', b'7'), REPLY % (b'"x"', b'[]'),
                                     REPLY % (b'"x"', b'{"prompt_tokens": true}'),
                                     REPLY % (b'"x"', b'{"completion_tokens": 2.7}'),
                                     REPLY % (b'"x"', b'{"prompt_tokens": -1}'),
                                     REPLY % (b'"x"', b'{"completion_tokens": null}'),
                                     REPLY % (b'"x"', b'{"prompt_tokens": "12"}'),
                                     REPLY % (b'"x"', b'{"completion_tokens": " 7 "}'),
                                     REPLY % (b'null', b'{}'), REPLY % (b'5', b'{}')])
    def test_malformed_response_is_adapter_error(self, stub_server, raw):
        stub_server.raw_body = raw
        policy = RemotePolicy(endpoint_for(stub_server))
        with pytest.raises(AdapterError, match="malformed completion response"):
            policy.generate(ECHO_PROBLEM, "p")

    def test_a_null_usage_counts_zero(self, stub_server):
        stub_server.raw_body = REPLY % (b'"x"', b"null")
        response = RemotePolicy(endpoint_for(stub_server)).generate(ECHO_PROBLEM, "p")
        assert response.content == "x"
        assert (response.usage.prompt_tokens, response.usage.completion_tokens) == (0, 0)

    def test_missing_url_rejected(self):
        with pytest.raises(AdapterError):
            RemotePolicy(AdapterEndpoint(kind="remote", url=None))

    @pytest.mark.parametrize("url", ["file:///etc/hostname", "ftp://h/v1", "h:8000/v1"])
    def test_non_http_url_rejected(self, url):
        with pytest.raises(AdapterError, match="http"):
            RemoteRoleBackend(AdapterEndpoint(kind="remote", url=url))

    def test_refused_connection_is_retried_then_adapter_error(self):
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        endpoint = AdapterEndpoint(kind="remote", url=f"http://127.0.0.1:{port}/v1/chat",
                                   timeout_s=2.0, retries=2)
        with pytest.raises(AdapterError, match=r"no response from .* after 3 attempts"):
            RemotePolicy(endpoint).generate(ECHO_PROBLEM, "p")

    def test_answer_slower_than_the_timeout_is_retried(self, threading_stub_server):
        threading_stub_server.delays = [2.0]
        policy = RemotePolicy(endpoint_for(threading_stub_server, timeout_s=0.5, retries=1))
        assert policy.generate(ECHO_PROBLEM, "p").content == "stub reply"
        assert len(threading_stub_server.requests) == 2
