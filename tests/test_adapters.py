"""Adapters: scripted backends, verdict math, the local executor, the wire client."""

from __future__ import annotations

import ast
import contextlib
import fcntl
import gc
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import termios
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import live_session_members

import agentdag
from agentdag import jsonio
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
from agentdag.cli import main
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

    def test_an_unknown_language_is_a_compilation_error(self):
        # The language is the label of the model's fence: one with no toolchain is its error.
        outcome = LocalExecutor().execute("print(1)", "cpp", ECHO_PROBLEM.tests,
                                          time_limit_ms=1000, memory_limit_mb=64)
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * 2
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert outcome.logs == "no toolchain configured for language 'cpp'"

    def test_default_language_from_config(self):
        executor = LocalExecutor(ExecutorConfig())
        outcome = executor.execute("print(input())", None, ECHO_PROBLEM.tests,
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED


class TestJudgeIsolation:
    """Output bounds, leftover processes, and what a candidate sees."""

    def test_flooding_program_keeps_the_judge_memory_bounded(self):
        # The judge runs in a child interpreter and reads its own peak RSS from
        # its address space: ru_maxrss would also count the pytest process's
        # peak, which a child spawned by vfork and exec inherits.
        script = (
            "from agentdag.adapters import LocalExecutor\n"
            "from agentdag.problem import TestCase\n"
            "flood = 'import sys\\nwhile True:\\n    sys.stdout.write(\"x\" * 65536)\\n'\n"
            "outcome = LocalExecutor().execute(flood, 'python', [TestCase('', '')],\n"
            "                                  time_limit_ms=300, memory_limit_mb=256)\n"
            "print(outcome.verdict.value,\n"
            "      open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        assert proc.returncode == 0, proc.stderr
        verdict, peak_rss_kb = proc.stdout.split()
        assert verdict == "TIME_LIMIT_EXCEEDED"
        assert int(peak_rss_kb) < 100 * 1024

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
                  "import __main__, builtins\n"
                  "print(__main__.__name__, __main__.__file__ == __file__,\n"
                  "      __builtins__ is builtins)\n")
        outcome = self.judge(source, expected="__main__ True True\n__main__ True True\n")
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

    def test_logs_name_the_workdirs_files_by_their_own_names(self):
        source = "print(__file__)\nraise ValueError('no')\n"
        first, second = self.judge(source), self.judge(source)
        assert 'File "main.py", line 2, in <module>' in first.logs
        assert "agentdag-judge-" not in first.logs
        assert first.logs == second.logs
        # What the program printed is compared, and kept, as it came.
        assert "agentdag-judge-" in first.per_test[0].actual_prefix

    def test_site_packages_are_out_of_reach_unless_the_command_is_overridden(self):
        pytest.importorskip("yaml")  # installed for the judge, not for candidates
        source = "import yaml\nprint('loaded')\n"
        outcome = self.judge(source, expected="loaded\n")
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert "ModuleNotFoundError: No module named 'yaml'" in outcome.logs

        outcome = executor_for(PLAIN_PYTHON).execute(
            source, "python", [TestCase(input="", expected_output="loaded\n")],
            time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    @pytest.mark.skipif(shutil.which("python3") is None, reason="needs python3 on PATH")
    def test_the_site_packages_recipe_judges_a_syntax_error_in_its_compile_step(self):
        source = "def broken(:\n    pass\n"
        tests = [TestCase(input="", expected_output="")] * 2
        outcome = executor_for(SITE_PACKAGES_RECIPE).execute(
            source, "python", tests, time_limit_ms=4000, memory_limit_mb=256)
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * 2
        assert outcome.logs.startswith('compilation failed (exit 1):   File "main.py", line 1')
        assert outcome.logs.endswith("SyntaxError: invalid syntax\n")
        # Without a compile step, an exec'd program that does not compile fails as it runs.
        outcome = executor_for(PLAIN_PYTHON).execute(
            source, "python", tests, time_limit_ms=4000, memory_limit_mb=256)
        assert [t.status for t in outcome.per_test] == [Verdict.RUNTIME_ERROR] * 2
        assert outcome.logs.endswith("SyntaxError: invalid syntax")


# The plain command, exec'd, and README's "Site-packages on demand" recipe,
# which adds a compile step to it.
PLAIN_PYTHON = {"python": {"run_cmd": ["python3", "{src}"], "source_name": "main.py"}}
SITE_PACKAGES_RECIPE = {"python": dict(PLAIN_PYTHON["python"],
                                       compile_cmd=["python3", "-m", "py_compile", "main.py"])}


def executor_for(languages: dict) -> LocalExecutor:
    return LocalExecutor(config_from_mapping({"executor": {"languages": languages}}).executor)


# The same program run by exec, not in a fork from the judge harness: a flag
# after -S makes the command one the harness does not run itself.
EXEC_PYTHON = {"python": {"run_cmd": ["python3", "-I", "-S", "-B", "{src}"],
                          "source_name": "main.py"}}


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

    def test_each_test_gets_exactly_its_own_input_whether_or_not_it_reads_it(self):
        # Inputs of 1 MB each; a test whose input starts with "i" ignores the
        # rest of it, and the others print a digest of theirs.
        source = ("import hashlib, os, sys\n"
                  "first = os.read(0, 1)\n"
                  "if first == b'i':\n"
                  "    print('ignored')\n"
                  "else:\n"
                  "    print(hashlib.sha256(first + sys.stdin.buffer.read()).hexdigest())\n")
        rng = random.Random(20)
        stdins = ["ie"[i % 2] + rng.randbytes(1 << 19).hex() for i in range(6)]
        tests = [TestCase(input=stdin, expected_output="ignored\n" if stdin[0] == "i" else
                          hashlib.sha256(stdin.encode()).hexdigest() + "\n")
                 for stdin in stdins]
        outcome = LocalExecutor().execute(source, "python", tests, time_limit_ms=4000,
                                          memory_limit_mb=256)
        assert [t.status for t in outcome.per_test] == [Verdict.PASSED] * 6, outcome.logs

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

    KEEP = ExecutorConfig().max_output_bytes + 1

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    @pytest.mark.parametrize("size", [0, 1, 25 * 1024, KEEP])
    def test_replies_split_at_every_byte_boundary_come_back_whole(self, size, stream):
        from agentdag.adapters import _harness

        output = b"x" * size
        results = [(0, output, b"", "") if stream == "stdout" else (0, b"", output, ""),
                   (None, b"7\n", b"Traceback\n", "M"), (1, b"", b"", "CSyntaxError: x (line 1)")]
        replies = [("pid", 4242), *(("result", result) for result in results), ("error", "why")]
        data = b"".join(chunk for tag, payload in replies for chunk in (
            _harness.result_frame(*payload) if tag == "result" else [_harness.frame((tag, payload))]))
        view = memoryview(data)
        feeds = ([view[:cut], view[cut:]] for cut in range(len(data) + 1))
        for feed in itertools.chain(feeds, [[view[i:i + 1] for i in range(len(data))]]):
            buffer, split = bytearray(), []
            for chunk in feed:
                buffer += chunk
                split.extend(_harness.split_replies(buffer))
            assert split == replies and buffer == b""

    def test_the_setup_is_read_back_ahead_of_the_jobs(self):
        from agentdag.adapters import _harness

        for job in (("workdir", True, ["main.py"], [b"1\n"], 0.5, 1 << 28),
                    ("workdir", False, ["sh", "main.sh"], [b"1\n"], 0.5, 1 << 28)):
            with fed_pipe([_harness.setup_frame(65537), _harness.job_frame(*job)]) as jobs:
                assert _harness.read_frame(jobs) == 65537
                assert read_job(jobs) == job
                assert not _harness.read_frame(jobs)

    def test_a_frame_that_does_not_decode_is_taken_off_as_none(self):
        from agentdag.adapters import _harness

        junk = b"\xff\xfe"
        buffer = bytearray(len(junk).to_bytes(8, "little") + junk + _harness.frame(("pid", 7)))
        assert list(_harness.split_replies(buffer)) == [(None, None), ("pid", 7)]

    def test_jobs_are_read_back_in_field_order_until_end_of_file(self):
        from agentdag.adapters import _harness

        job = ("workdir", True, ["main.py", "a"], [b"", b"1", bytes(range(256)) * 257],
               0.5, 1 << 28)
        data = _harness.job_frame(*job)
        assert len(job[3][2]) > 64 * 1024  # more than a pipe holds
        view = memoryview(data)
        halves = [half for cut in range(len(data) + 1) for half in (view[:cut], view[cut:])]
        with fed_pipe([*halves, *(view[i:i + 1] for i in range(len(data)))]) as jobs:
            for _ in range(len(data) + 2):
                assert read_job(jobs) == job
            assert not read_job(jobs)
        head = len(data) - sum(map(len, job[3]))
        for cut in (0, 5, head - 1, head + 1, len(data) - 1):
            with fed_pipe([view[:cut]]) as jobs:
                assert not read_job(jobs)  # a torn frame reads as end of file


@contextlib.contextmanager
def fed_pipe(chunks):
    """The read end of a pipe that a forked writer fills with ``chunks``, each
    written only once the pipe is empty, so that a reader gets each chunk
    apart from the next; the writer closes the pipe after the last."""
    read_end, write_end = os.pipe()
    empty = bytes(4)
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            for chunk in chunks:
                while fcntl.ioctl(write_end, termios.FIONREAD, empty) != empty:
                    os.sched_yield()
                while chunk:
                    chunk = chunk[os.write(write_end, chunk):]
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        yield read_end
    finally:
        os.close(read_end)
        os.kill(pid, 9)
        os.waitpid(pid, 0)


def read_job(fd: int):
    """The next job on ``fd``, read as the harness reads it, with each input's
    bytes in place of its size; false at end of file."""
    from agentdag.adapters import _harness

    head = _harness.read_frame(fd)
    if not head:
        return head
    workdir, in_fork, argv, sizes, limit_s, limit_as = head
    inputs = []
    for size in sizes:
        stdin = _harness.read_input(fd, size)
        if stdin is None:
            return None
        with open(stdin, "rb") as file:
            inputs.append(file.read())
    return workdir, in_fork, argv, inputs, limit_s, limit_as


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


@pytest.fixture
def judged(monkeypatch) -> list[int]:
    """The number of results of each job a harness judged, in order."""
    from agentdag.adapters import sandbox

    counts = []
    judge = sandbox._Harness.judge

    def counting_judge(harness, *args):
        results, running, ending = judge(harness, *args)
        counts.append(len(results))
        return results, running, ending

    monkeypatch.setattr(sandbox._Harness, "judge", counting_judge)
    return counts


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

    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_a_syntax_error_costs_one_job_and_one_forked_test(self, count, judged):
        executor = LocalExecutor()
        # At 16 tests the inputs outgrow a pipe, so the job is still being sent
        # when its compile error comes back.
        tests = [TestCase(input=f"{i}\n" * 5000, expected_output=f"{i}\n") for i in range(count)]
        outcome = executor.execute("def broken(:\n    pass\n", "python", tests,
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * count
        assert outcome.logs == "compilation failed: SyntaxError: invalid syntax (line 1)"
        assert judged == [1]
        # The harness took the job's other inputs off its pipe, so the next
        # candidate reads its own.
        outcome = executor.execute("print(input())", "python", tests, time_limit_ms=4000,
                                   memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs
        assert judged == [1, count]

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
        harness = harness_of(executor)
        for size, count in ((3 << 20, 5), (100_000, 10)):
            big = "x" * size
            outcome = executor.execute("print(len(input()))", "python",
                                       [TestCase(input=big, expected_output=f"{size}\n")] * count,
                                       time_limit_ms=4000, memory_limit_mb=256)
            assert outcome.verdict is Verdict.PASSED, outcome.logs
        after = int(judge_one(executor, PRINT_VMSIZE).per_test[0].actual_prefix)
        assert after <= fresh + 512
        assert harness_of(executor) == harness

    def test_a_test_starts_without_the_other_tests_inputs(self):
        executor = LocalExecutor(ExecutorConfig(workers=1))

        def sizes(stdin: str) -> list[int]:
            outcome = executor.execute(PRINT_VMSIZE, "python", [TestCase(stdin, "")] * 3,
                                       time_limit_ms=4000, memory_limit_mb=256)
            return [int(test.actual_prefix) for test in outcome.per_test]

        small, large = sizes("x" * 9 + "\n"), sizes("x" * (4 << 20))
        page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
        assert max(small + large) - min(small + large) <= page_kb, (small, large)

    @pytest.mark.parametrize("source,expected", [
        ("print('\\n'.join(str(i * i) for i in range(3200)))\n",  # about 25 KB
         "\n".join(str(i * i) for i in range(3200)) + "\n"),
        ("print('y' * 60000)\n", "y" * 60000 + "\n"),
        ("import sys\nsys.stdout.write('o' * 200000)\nsys.stderr.write('e' * 200000)\n"
         "sys.exit(1)\n", ""),
    ], ids=["25KB", "60KB", "flood"])
    def test_large_outputs_never_retire_the_harness(self, source, expected):
        def judge(executor):
            return executor.execute(source, "python", [TestCase(input="", expected_output=expected)],
                                    time_limit_ms=4000, memory_limit_mb=256)

        fresh = judge(LocalExecutor())
        executor = LocalExecutor(ExecutorConfig(workers=1))
        harness = harness_of(executor)
        for _ in range(5):
            assert judge(executor) == fresh
            assert harness_of(executor) == harness


class TestPythonInTheFork:
    """Only ``python3 -I -S FILE ARGS...`` runs in a fork of the harness, and
    there it ends as under ``python3 -I -S FILE``; any other command, a
    configured ``-c CODE`` among them, is exec'd."""

    @pytest.mark.parametrize("flags,forked", [((), True), (("-B",), False), (("-u",), False)])
    def test_a_flag_after_dash_s_makes_the_command_execd(self, flags, forked):
        executor = executor_for({"python": {"run_cmd": ["python3", "-I", "-S", *flags, "{src}"],
                                            "source_name": "main.py"}})
        forked_here = "import sys\nprint(any(a.endswith('_harness.py') for a in sys.orig_argv))\n"
        assert judge_one(executor, forked_here).per_test[0].actual_prefix == f"{forked}\n"

    @pytest.mark.parametrize("code", [
        "import sys\nprint(len(sys.argv), sys.argv[1].endswith('main.py'), input(),\n"
        "      any(arg.endswith('_harness.py') for arg in sys.orig_argv), file=sys.stderr)\n"
        "sys.exit(3)\n",
        "def broken(:\n",
        "import sys\nif sys.argv is 'x':\n    pass\nsys.exit(2)\n",
    ], ids=["valid", "syntax error", "syntax warning"])
    def test_a_configured_dash_c_command_is_execd_and_ends_as_under_the_interpreter(
            self, code, tmp_path):
        script = tmp_path / "main.py"
        script.write_text("print('unused')\n", encoding="utf-8")
        plain = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(script)],
                               input="a\n", capture_output=True, text=True, timeout=30)
        assert plain.returncode in (1, 2, 3) and plain.stderr
        languages = {"alt": {"run_cmd": [sys.executable, "-I", "-S", "-c", code, "{src}"],
                             "source_name": "main.py"}}
        outcome = executor_for(languages).execute(
            "print('unused')\n", "alt", [TestCase("a\n", "")], time_limit_ms=4000,
            memory_limit_mb=256)
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert outcome.logs == \
            f"test 0: runtime error (exit {plain.returncode}); stderr: {plain.stderr.strip()}"

    def test_exiting_on_a_caught_memory_error_is_memory_limit_exceeded(self):
        source = ("import sys\n"
                  "try:\n"
                  "    x = bytearray(512 * 1024 * 1024)\n"
                  "except MemoryError:\n"
                  "    sys.exit(1)\n")
        outcome = LocalExecutor().execute(source, "python", [TestCase("", "")],
                                          time_limit_ms=4000, memory_limit_mb=64)
        assert outcome.verdict is Verdict.MEMORY_LIMIT_EXCEEDED, outcome.logs

    @pytest.mark.parametrize("ending,status", [
        ("raise KeyboardInterrupt('stop')\n", -2),
        ("class Interrupt(KeyboardInterrupt):\n    pass\nraise Interrupt\n", 1),
        ("import signal\nsignal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})\n"
         "raise KeyboardInterrupt\n", 130),
    ], ids=["KeyboardInterrupt", "a subclass", "SIGINT blocked"])
    def test_an_uncaught_keyboard_interrupt_ends_as_under_the_interpreter(self, ending, status):
        # The interpreter ends by SIGINT on this exact type, after its exit handlers.
        source = "import atexit\natexit.register(print, 'ok')\n" + ending
        forked = judge_one(LocalExecutor(), source)
        execd = judge_one(executor_for(EXEC_PYTHON), source)
        assert (forked.verdict, forked.logs) == (execd.verdict, execd.logs)
        assert forked.verdict is Verdict.RUNTIME_ERROR
        assert forked.logs.startswith(f"test 0: runtime error (exit {status}); stderr: ")
        assert forked.per_test[0].actual_prefix == "ok\n"

    def test_the_harness_compiler_flags_never_reach_the_program(self, tmp_path):
        source = "def f(x: undefined_name):\n    pass\nprint('defined')\n"
        script = tmp_path / "main.py"
        script.write_text(source, encoding="utf-8")
        plain = subprocess.run([sys.executable, "-I", "-S", str(script)], capture_output=True,
                               text=True, timeout=30)
        assert plain.returncode == 1
        assert plain.stderr.strip().endswith("NameError: name 'undefined_name' is not defined")
        outcome = judge_one(LocalExecutor(), source)
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert outcome.logs.endswith("NameError: name 'undefined_name' is not defined")


# -- the fork path against the interpreter it stands in for ----------------------

# How a generated program ends. ``{code}`` is an exit status and ``{n}`` a
# number, both drawn per program.
ENDINGS = {
    "end of file": "",
    "sys.exit(int)": "import sys\nsys.exit({code})\n",
    "sys.exit(str)": "import sys\nsys.exit('bye {n}')\n",
    "sys.exit(None)": "import sys\nsys.exit(None)\n",
    "exit()": "exit({code})\n",
    "Exception subclass": "class Failure(ValueError):\n    pass\nraise Failure({n})\n",
    "BaseException subclass": "class Abort(BaseException):\n    pass\nraise Abort({n})\n",
    "os._exit after a flush": "import os, sys\nsys.stdout.flush()\nos._exit({code})\n",
    "os._exit without a flush": "import os\nos._exit({code})\n",
    "a signal": "import os, signal\nos.kill(os.getpid(), signal.SIGTERM)\n",
    "stdin read past EOF": "input()\ninput()\n",
    "a large output": "print('x' * {n}000)\n",
    "deep recursion": "def down(n):\n    return down(n + 1)\ndown(0)\n",
    "MemoryError": "x = bytearray(512 * 1024 * 1024)\n",
    "sys.exit on a MemoryError": "import sys\ntry:\n    x = bytearray(512 * 1024 * 1024)\n"
                                 "except MemoryError:\n    sys.exit({code})\n",
}
# What may run before the ending, each drawn or not per program. The thread
# prints once the main thread has ended, as the interpreter's shutdown joins it.
PRELUDES = (
    "print({n})\n",
    "import atexit\n@atexit.register\ndef at_exit():\n    print('at exit {n}')\n",
    "import threading\nthreading.Thread(target=lambda: (threading.main_thread().join(),\n"
    "                                  print('thread {n}'))).start()\n",
    "import sys\nprint({n})\nsys.stdout.close()\n",
)
# Where the paths differ by design: the README sentence that says so, and
# what each path gives.
KNOWN_DIFFERENCES = {
    "exit()": ("`exit()` and `quit()` work, although `-S` would leave them out",
               lambda fork, execd: execd[:2] == ("RUNTIME_ERROR", (1,))
               and "NameError: name 'exit' is not defined" in execd[2]),
    "sys.exit on a MemoryError": (
        "On the fork path, a nonzero exit is `MEMORY_LIMIT_EXCEEDED` only when the program "
        "ended with an uncaught `MemoryError`, or with a `SystemExit` raised while it "
        "handled one",
        lambda fork, execd: (fork[0], execd[0]) == ("MEMORY_LIMIT_EXCEEDED", "RUNTIME_ERROR")
        and fork[1] == execd[1]),
    "syntax": ("an exec'd `python` command without a `compile_cmd` judges a syntax error "
               "`RUNTIME_ERROR`, like any program that exits 1",
               lambda fork, execd: (fork[0], execd[0]) == ("COMPILATION_ERROR", "RUNTIME_ERROR")
               and set(execd[1]) == {1}),
}
README_TEXT = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
# A repr names an object's address, which no two processes share.
ADDRESS = re.compile(r" at 0x[0-9a-f]+")


@pytest.fixture
def on_both_paths(monkeypatch):
    """Judges a program in the fork and exec'd, and checks that both end it
    alike: the same verdict, exit statuses and log, or the known difference
    its ``kind`` names."""
    statuses: list = []
    run_harness = LocalExecutor._run_harness

    def recording(self, *args):
        results, ending = run_harness(self, *args)
        statuses.append(tuple(result[0] for result in results))
        return results, ending

    monkeypatch.setattr(LocalExecutor, "_run_harness", recording)
    executors = LocalExecutor(), executor_for(EXEC_PYTHON)

    def check(kind: str, source: str, tests: list[TestCase]) -> None:
        outcomes = []
        for executor in executors:
            outcome = executor.execute(source, "python", tests, time_limit_ms=4000,
                                       memory_limit_mb=256)
            outcomes.append((outcome.verdict.value, statuses.pop(),
                             ADDRESS.sub(" at 0x…", outcome.logs)))
        if kind in KNOWN_DIFFERENCES:
            sentence, expected = KNOWN_DIFFERENCES[kind]
            assert sentence in README_TEXT
            assert outcomes[0] != outcomes[1] and expected(*outcomes), (source, outcomes)
        else:
            assert outcomes[0] == outcomes[1], source

    return check


def generated_program(rng: random.Random, ending: str) -> str:
    values = {"code": rng.choice((0, 1, 3, 255, 256, -1)), "n": rng.randint(70, 300)}
    preludes = [p for p in PRELUDES if rng.random() < 0.4]
    return "".join(preludes + [ENDINGS[ending]]).format(**values)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_the_fork_ends_a_program_as_the_interpreter_does(seed, on_both_paths):
    rng = random.Random(seed)
    for ending in ENDINGS:
        on_both_paths(ending, generated_program(rng, ending), [TestCase("5\n", "ok\n")])


def test_the_benchmarks_candidates_end_alike_on_both_paths(on_both_paths):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    judged = {}  # each program once, with the tests of the first problem it meets
    for episode in gen.rollout_round(1):
        tests = [TestCase(t["input"], t["expected_output"]) for t in episode.problem["tests"]]
        for turn, source in zip(episode.turns, episode.solutions):
            if turn.kind in gen.CANDIDATE_VERDICTS and source not in judged:
                on_both_paths(turn.kind, source, tests)
                judged[source] = turn.kind
    assert set(judged.values()) == set(gen.CANDIDATE_VERDICTS)


# Programs that replace a standard stream: the interpreter's heap teardown
# flushes the original one, which holds what the program printed before.
REPLACED_STREAMS = {
    "stdout set to None": "import sys\nprint('ok')\nsys.stdout = None\n",
    "stdout set to a StringIO": "import io, sys\nprint('ok')\nsys.stdout = io.StringIO()\n",
    "stderr set to None": "import sys\nsys.stderr.write('e')\nsys.stderr = None\nsys.exit(1)\n",
    "stdout closed under a replacement": "import os, sys\nprint('ok')\nsys.stdout = None\n"
                                         "os.close(1)\n",
}


@pytest.mark.parametrize("source", REPLACED_STREAMS.values(), ids=REPLACED_STREAMS)
def test_a_program_that_replaces_a_standard_stream_ends_alike_on_both_paths(source,
                                                                          on_both_paths):
    on_both_paths("replaced stream", source, [TestCase("", "ok\n")])


class TestPythonSyntaxCheck:
    """A program run in the fork is compiled there, once per test, as the
    interpreter compiles a file; an error of that compile, and only that, is
    a ``COMPILATION_ERROR``. What the compile shows stays the candidate's."""

    def judge(self, source: str, tests: list[TestCase]):
        return LocalExecutor().execute(source, "python", tests, time_limit_ms=4000,
                                       memory_limit_mb=256)

    @pytest.mark.parametrize("source,error", [
        ("def f()\n    pass\n", "SyntaxError: expected ':' (line 1)"),
        ("if True:\nprint(1)\n", "IndentationError: expected an indented block after 'if' "
                                 "statement on line 1 (line 2)"),
        ("if True:\n        x = 1\n\tprint(x)\n",
         "TabError: inconsistent use of tabs and spaces in indentation (line 3)"),
        ("print(1)\x00\n", "SyntaxError: source code string cannot contain null bytes (line None)"),
        ("print((1)\n", "SyntaxError: '(' was never closed (line 1)"),
        ("x = " + "[" * 5000 + "]" * 5000 + "\n",
         "SyntaxError: too many nested parentheses (line 1)"),
    ], ids=["missing colon", "indentation", "tab", "nul byte", "unclosed paren", "deep nesting"])
    def test_a_syntax_error_keeps_its_log_line(self, source, error):
        outcome = self.judge(source, [TestCase("1\n", "1\n"), TestCase("2\n", "2\n")])
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * 2
        assert outcome.logs == f"compilation failed: {error}"

    @pytest.mark.parametrize("source,last_line", [
        ("x = " + "-" * 200_000 + "1\n", "MemoryError"),
        ("x = 1" + "+1" * 200_000 + "\n",
         "RecursionError: maximum recursion depth exceeded during compilation"),
    ], ids=["parser stack", "compiler recursion"])
    def test_a_source_too_deep_to_compile_ends_as_under_the_interpreter(
            self, source, last_line, tmp_path):
        # The plain interpreter exits 1 before the program runs; the fork's
        # compile fails the same way, and that is a compile failure, not a
        # memory verdict or a runtime error of a program that never ran.
        script = tmp_path / "main.py"
        script.write_text(source, encoding="utf-8")
        plain = subprocess.run([sys.executable, "-I", "-S", str(script)], capture_output=True,
                               text=True, timeout=60)
        assert plain.returncode == 1
        assert plain.stderr.strip().splitlines()[-1] == last_line
        outcome = self.judge(source, [TestCase("", "")] * 2)
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * 2
        assert outcome.logs == f"compilation failed: {last_line}"

    def test_a_byte_order_mark_is_read_as_the_interpreter_reads_it(self):
        outcome = self.judge("\ufeffprint(input())", [TestCase("hi\n", "hi\n")])
        assert outcome.verdict is Verdict.PASSED, outcome.logs

    def test_a_byte_the_coding_declaration_refuses_is_a_compilation_error(self):
        outcome = self.judge("# coding: ascii\nprint('\u00e9')\n", [TestCase("", "")])
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert outcome.logs == ("compilation failed: SyntaxError: 'ascii' codec can't decode "
                                "byte 0xc3 in position 23: ordinal not in range(128) (line 0)")

    def test_a_lone_surrogate_is_a_compilation_error(self):
        outcome = self.judge("print('\ud800')\n", [TestCase("", "")])
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert outcome.logs.startswith(
            "compilation failed: SyntaxError: (unicode error) 'utf-8' codec can't decode byte 0xed")

    def test_a_syntax_error_the_program_raises_as_it_runs_is_a_runtime_error(self):
        outcome = self.judge("print(input())\neval('(')\n", [TestCase("hi\n", "hi\n")] * 2)
        assert [t.status for t in outcome.per_test] == [Verdict.RUNTIME_ERROR] * 2
        assert outcome.per_test[0].actual_prefix == "hi\n"
        assert outcome.logs.endswith("SyntaxError: '(' was never closed")

    def test_a_syntax_warning_stays_off_the_judges_stderr_and_is_no_error(self, capfd):
        # In a process of its own: pytest records the warnings of its tests.
        source = "x = input()\nif x is 'a':\n    print(1)\nprint(2)\n"
        test = TestCase("b\n", "2\n")
        script = (
            "import warnings\n"
            "from agentdag.adapters import LocalExecutor\n"
            "from agentdag.problem import TestCase\n"
            "def judge():\n"
            f"    return LocalExecutor().execute({source!r}, 'python', [{test!r}],\n"
            "        time_limit_ms=4000, memory_limit_mb=256).verdict.value\n"
            "shown = judge()\n"
            "with warnings.catch_warnings():\n"
            "    warnings.simplefilter('error')\n"
            "    print(shown, judge())\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        out, err = capfd.readouterr()
        assert proc.returncode == 0, err
        assert (out, err) == ("PASSED PASSED\n", "")

    def test_the_judges_future_imports_never_reach_the_check(self):
        # A named expression in an annotation is an error only under postponed annotations.
        outcome = LocalExecutor().execute(
            "def f() -> (x := int):\n    pass\nprint(x.__name__)\n", "python",
            [TestCase("", "int\n")], time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs


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


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
class TestCompiledLanguage:
    """A compiled language end to end: its compile step, and its binary exec'd
    in the fork."""

    C = {"c": {"compile_cmd": ["cc", "-O2", "-o", "{bin}", "{src}"], "run_cmd": ["{bin}"],
               "source_name": "main.c"}}
    SUM = ("#include <stdio.h>\n"
           "int main(void) { long a, b; scanf(\"%ld %ld\", &a, &b); printf(\"%ld\\n\", a + b);"
           " return 0; }\n")

    def judge(self, source: str, tests: list[TestCase], memory_limit_mb: int = 256):
        return executor_for(self.C).execute(source, "c", tests, time_limit_ms=4000,
                                            memory_limit_mb=memory_limit_mb)

    def test_a_correct_program_passes_every_test(self):
        outcome = self.judge(self.SUM, [TestCase("1 2\n", "3\n"), TestCase("10 -4\n", "6\n")])
        assert [t.status for t in outcome.per_test] == [Verdict.PASSED] * 2, outcome.logs
        assert outcome.per_test[1].actual_prefix == "6\n"
        assert outcome.logs == "all 2 tests passed"

    def test_a_wrong_expectation_is_a_wrong_answer(self):
        outcome = self.judge(self.SUM, [TestCase("1 2\n", "3\n"), TestCase("1 2\n", "4\n")])
        assert [t.status for t in outcome.per_test] == [Verdict.PASSED, Verdict.WRONG_ANSWER]
        assert outcome.logs == "test 1: expected '4', got '3', input '1 2'"

    def test_a_syntax_error_is_a_compilation_error_with_the_compiler_message(self, judged):
        outcome = self.judge("int main(void) { return 0 }\n", [TestCase("", "")] * 2)
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR] * 2
        # The compiler names the source by its path in the workdir, which the log leaves out.
        assert outcome.logs.startswith("compilation failed (exit 1): main.c:")
        assert "error" in outcome.logs
        assert judged == [1]  # the compile step is a job of one test; no test job follows

    def test_an_allocation_past_the_memory_limit_fails_and_exits_as_written(self):
        source = ("#include <stdlib.h>\n#include <string.h>\n"
                  "int main(void) { char *p = malloc(128L << 20); if (!p) return 3;"
                  " memset(p, 1, 128L << 20); return 0; }\n")
        outcome = self.judge(source, [TestCase("", "")], memory_limit_mb=64)
        assert outcome.verdict is Verdict.RUNTIME_ERROR
        assert outcome.logs == "test 0: runtime error (exit 3); stderr: "


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX shell")
class TestCompileStep:
    """A compile step runs on a harness as a job of one test with no input,
    under the supervision every test gets. Shell commands stand in for a
    compiler, so that nothing waits on a real one."""

    @staticmethod
    def languages(compile_cmd: list[str]) -> dict:
        return {"c": {"compile_cmd": compile_cmd, "run_cmd": ["sh", "{src}"],
                      "source_name": "main.c"}}

    def judge(self, compile_cmd: list[str], source: str = "echo ok\n"):
        return executor_for(self.languages(compile_cmd)).execute(
            source, "c", [TestCase("", "ok\n")], time_limit_ms=4000, memory_limit_mb=256)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs procfs")
    def test_a_child_the_compile_step_leaves_is_killed_and_does_not_hold_it(self, tmp_path):
        report = tmp_path / "session"
        started = time.monotonic()
        outcome = self.judge(["sh", "-c", f"sleep 8 & echo $$ > {report}"])
        assert time.monotonic() - started < 1
        assert outcome.verdict is Verdict.PASSED, outcome.logs
        sid = int(report.read_text())  # the compile step leads the session
        deadline = time.monotonic() + 1
        while live_session_members(sid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert live_session_members(sid) == []

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs procfs")
    def test_a_compile_step_that_floods_stderr_keeps_the_judge_memory_bounded(self):
        # In a judge of its own, which reads its peak RSS from its address space.
        flood = self.languages(["sh", "-c", "head -c 50000000 /dev/zero >&2; exit 1"])
        script = (
            "from agentdag.adapters import LocalExecutor\n"
            "from agentdag.config import config_from_mapping\n"
            "from agentdag.problem import TestCase\n"
            "def peak():\n"
            "    return int(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
            "def judge(languages):\n"
            "    config = config_from_mapping({'executor': {'languages': languages}})\n"
            "    return LocalExecutor(config.executor).execute(\n"
            "        'echo ok', 'c', [TestCase('', 'ok\\n')], time_limit_ms=4000,\n"
            "        memory_limit_mb=256)\n"
            f"judge({self.languages(['sh', '-c', 'exit 1'])!r})\n"
            "before = peak()\n"
            f"outcome = judge({flood!r})\n"
            "print(outcome.verdict.value, peak() - before)\n"
        )
        src_root = str(Path(agentdag.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src_root), timeout=60)
        assert proc.returncode == 0, proc.stderr
        verdict, rise_kb = proc.stdout.split()
        assert verdict == "COMPILATION_ERROR"
        assert int(rise_kb) < 10 * 1024

    def test_a_lone_surrogate_in_the_source_is_a_compilation_error(self):
        # The stand-in echoes the source's bytes as a compiler echoes a bad line.
        outcome = self.judge(["sh", "-c", "cat {src} >&2; exit 1"], source="int x = '\ud800';\n")
        assert outcome.verdict is Verdict.COMPILATION_ERROR
        assert outcome.logs.startswith("compilation failed (exit 1): int x = '\ufffd")

    def test_a_compile_step_past_its_time_is_a_compilation_error(self, monkeypatch):
        from agentdag.adapters import sandbox

        monkeypatch.setattr(sandbox, "_COMPILE_TIMEOUT_S", 0.5)
        started = time.monotonic()
        outcome = self.judge(["sleep", "60"])
        assert time.monotonic() - started < 5
        assert [t.status for t in outcome.per_test] == [Verdict.COMPILATION_ERROR]
        assert outcome.logs == "compilation timed out after 0.5 s"

    def test_a_compiler_that_cannot_start_is_an_infrastructure_error(self):
        with pytest.raises(SandboxError, match="agentdag-no-such-compiler"):
            self.judge(["agentdag-no-such-compiler", "{src}"])

    def test_a_harness_that_ends_during_the_compile_step_is_an_infrastructure_error(self):
        executor = executor_for(self.languages(["sh", "-c", "kill -9 $PPID"]))
        for _ in range(2):  # the killed harness is replaced
            with pytest.raises(SandboxError, match=r"compile step \(killed by signal 9\)"):
                executor.execute("echo ok\n", "c", [TestCase("", "ok\n")], time_limit_ms=4000,
                                 memory_limit_mb=256)

    @pytest.mark.skipif(shutil.which("env") is None, reason="needs env")
    def test_exec_d_programs_and_compile_steps_see_only_path_and_lang(self, monkeypatch):
        # Without LANG, the harness's interpreter coerces its locale and sets
        # LC_CTYPE in its own environment; no exec'd program inherits it.
        monkeypatch.delenv("LANG", raising=False)
        monkeypatch.delenv("LC_ALL", raising=False)
        monkeypatch.setenv("AGENTDAG_TEST_KEY", "secret")
        outcome = self.judge(["sh", "-c", "env >&2; exit 1"])
        assert outcome.logs.startswith("compilation failed (exit 1): ")
        assert f"PATH={os.environ['PATH']}\n" in outcome.logs
        assert "LC_CTYPE" not in outcome.logs and "AGENTDAG_TEST_KEY" not in outcome.logs
        executor = executor_for({"env": {"run_cmd": ["env"]}})
        outcome = executor.execute("-", "env", [TestCase("", f"PATH={os.environ['PATH']}\n")],
                                   time_limit_ms=4000, memory_limit_mb=256)
        assert outcome.verdict is Verdict.PASSED, outcome.logs


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
        data = self.server.raw_body
        if callable(data):
            data = data(body)
        if data is None:
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
    server.raw_body = None  # bytes, or a function of the request body to bytes or None
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

    def test_a_deeply_nested_reply_is_adapter_error(self, stub_server):
        stub_server.raw_body = b"[" * 100_000 + b"]" * 100_000
        with pytest.raises(AdapterError, match="^malformed completion response: response body: "
                                               "invalid JSON: document nests too deeply"):
            RemotePolicy(endpoint_for(stub_server)).generate(ECHO_PROBLEM, "p")

    def test_a_deeply_nested_reply_ends_only_its_own_episode(self, stub_server, tmp_path,
                                                             capsys):
        # The policy reads the topology block, the role agent the last block.
        stub_server.reply_fn = lambda body: (
            "```yaml\ndifficulty: 1\nsteps:\n- agents:\n  - id: coder\n"
            "    role: coding\n    ref: []\n```\n```python\nprint(input())\n```")
        stub_server.raw_body = lambda body: (
            b"[" * 100_000 + b"]" * 100_000
            if any("NEST" in m["content"] for m in body["messages"]) else None)
        host, port = stub_server.server_address
        url = f"http://{host}:{port}/v1/chat"
        config = tmp_path / "remote.yaml"
        config.write_text(f"policy: {{kind: remote, url: '{url}'}}\n"
                          f"roles: {{kind: remote, url: '{url}'}}\n", encoding="utf-8")
        problems = tmp_path / "problems.jsonl"
        jsonio.write_jsonl([dict(ECHO_PROBLEM.to_dict(), id=pid, description=text)
                            for pid, text in (("deep", "NEST"), ("echo", "Echo a line."))],
                           problems)
        code = main(["run", "--problems", str(problems), "--config", str(config)])
        out, err = capsys.readouterr()
        episodes = [json.loads(line) for line in out.splitlines()]
        assert code == 3
        assert [(e["problem_id"], e["status"]) for e in episodes] == [
            ("deep", "ERROR"), ("echo", "PASSED")]
        assert episodes[0]["error"].startswith("AdapterError: malformed completion response")
        assert "1 ERROR" in err

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
