"""Local subprocess executor: desk-scale judging, not a security boundary."""

from __future__ import annotations

import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import Sequence

from ..config import ExecutorConfig, LanguageSpec
from ..problem import TestCase
from ..verdicts import ExecOutcome, TestResult, Verdict, classify_verdict, outputs_match
from .base import SandboxError

try:
    import resource

    HAS_RESOURCE = True
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]
    HAS_RESOURCE = False

_ACTUAL_PREFIX_CHARS = 160
_COMPILE_TIMEOUT_S = 30.0


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit] + "…"


def _memory_limiter(memory_limit_mb: int):
    """Pre-exec hook applying an address-space cap (POSIX only)."""
    limit_bytes = memory_limit_mb * 1024 * 1024

    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return apply


class LocalExecutor:
    """Runs candidate programs under wall-time and address-space limits.

    Compilations are serialized per language toolchain; concurrent
    ``execute`` calls are throttled by the configured worker cap. When the
    platform cannot enforce memory limits, would-be memory verdicts degrade
    to RUNTIME_ERROR and the logs say so.
    """

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig()
        self._workers = threading.Semaphore(self.config.workers)
        self._compile_locks: dict[str, threading.Lock] = {
            tag: threading.Lock() for tag in self.config.languages
        }

    # -- public API ---------------------------------------------------------

    def execute(self, source: str, language: str | None, tests: Sequence[TestCase], *,
                time_limit_ms: int | None = None,
                memory_limit_mb: int | None = None) -> ExecOutcome:
        if not source.strip():
            raise SandboxError("refusing to judge an empty program")
        if not tests:
            raise SandboxError("refusing to judge without tests")
        tag = language or self.config.default_language
        spec = self.config.languages.get(tag)
        if spec is None:
            raise SandboxError(f"no toolchain configured for language {tag!r}")
        time_limit_ms = time_limit_ms or self.config.time_limit_ms
        memory_limit_mb = memory_limit_mb or self.config.memory_limit_mb

        with self._workers:
            return self._judge(source, tag, spec, tests, time_limit_ms, memory_limit_mb)

    # -- internals ----------------------------------------------------------

    def _judge(self, source: str, tag: str, spec: LanguageSpec, tests: Sequence[TestCase],
               time_limit_ms: int, memory_limit_mb: int) -> ExecOutcome:
        log_lines: list[str] = []
        with tempfile.TemporaryDirectory(prefix="agentdag-judge-") as workdir:
            src_path = Path(workdir) / spec.source_name
            src_path.write_text(source, encoding="utf-8")
            bin_path = Path(workdir) / "program"

            compile_error = self._compile(source, tag, spec, src_path, bin_path, log_lines)
            if compile_error is not None:
                per_test = tuple(
                    TestResult(index=i, status=Verdict.COMPILATION_ERROR)
                    for i in range(len(tests))
                )
                return ExecOutcome(
                    verdict=Verdict.COMPILATION_ERROR,
                    per_test=per_test,
                    logs="\n".join(log_lines),
                )

            run_cmd = [
                arg.format(src=str(src_path), bin=str(bin_path)) for arg in spec.run_cmd
            ]
            if tag == "python":
                # Run under the same interpreter that is running us.
                run_cmd = [sys.executable if arg == "python3" else arg for arg in run_cmd]

            results = [
                self._run_test(run_cmd, i, test, time_limit_ms, memory_limit_mb, log_lines)
                for i, test in enumerate(tests)
            ]
        verdict = classify_verdict([r.status for r in results])
        if verdict is Verdict.PASSED:
            log_lines.append(f"all {len(tests)} tests passed")
        return ExecOutcome(verdict=verdict, per_test=tuple(results), logs="\n".join(log_lines))

    def _compile(self, source: str, tag: str, spec: LanguageSpec, src_path: Path,
                 bin_path: Path, log_lines: list[str]) -> str | None:
        """Returns an error description on compile failure, else None."""
        if tag == "python":
            # In-process syntax check: deterministic and cheap.
            try:
                compile(source, spec.source_name, "exec")
            except SyntaxError as exc:
                message = f"compilation failed: {exc.__class__.__name__}: {exc.msg} (line {exc.lineno})"
                log_lines.append(message)
                return message
            return None
        if spec.compile_cmd is None:
            return None
        cmd = [arg.format(src=str(src_path), bin=str(bin_path)) for arg in spec.compile_cmd]
        with self._compile_locks[tag]:
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise SandboxError(f"compiler unavailable or hung: {exc}") from exc
        if proc.returncode != 0:
            message = f"compilation failed (exit {proc.returncode}): {_clip(proc.stderr, 800)}"
            log_lines.append(message)
            return message
        return None

    def _run_test(self, run_cmd: list[str], index: int, test: TestCase,
                  time_limit_ms: int, memory_limit_mb: int,
                  log_lines: list[str]) -> TestResult:
        preexec = _memory_limiter(memory_limit_mb) if HAS_RESOURCE else None
        try:
            proc = subprocess.run(
                run_cmd,
                input=test.input,
                capture_output=True,
                text=True,
                timeout=time_limit_ms / 1000.0,
                preexec_fn=preexec,
            )
        except subprocess.TimeoutExpired:
            log_lines.append(f"test {index}: time limit exceeded ({time_limit_ms} ms)")
            return TestResult(index=index, status=Verdict.TIME_LIMIT_EXCEEDED)
        except OSError as exc:
            raise SandboxError(f"failed to launch candidate program: {exc}") from exc

        stdout = _clip(proc.stdout or "", self.config.max_output_bytes)
        stderr = proc.stderr or ""

        if proc.returncode != 0:
            memory_blown = "MemoryError" in stderr or (
                HAS_RESOURCE and proc.returncode == -signal.SIGKILL
            )
            if memory_blown and HAS_RESOURCE:
                log_lines.append(f"test {index}: memory limit exceeded ({memory_limit_mb} MB)")
                return TestResult(index=index, status=Verdict.MEMORY_LIMIT_EXCEEDED)
            if memory_blown:
                log_lines.append(
                    f"test {index}: runtime error; memory caps are unenforced on this "
                    "platform, so a memory verdict cannot be distinguished"
                )
                return TestResult(index=index, status=Verdict.RUNTIME_ERROR)
            log_lines.append(
                f"test {index}: runtime error (exit {proc.returncode}); "
                f"stderr: {_clip(stderr.strip(), 400)}"
            )
            return TestResult(
                index=index, status=Verdict.RUNTIME_ERROR,
                actual_prefix=stdout[:_ACTUAL_PREFIX_CHARS],
            )

        if outputs_match(stdout, test.expected_output):
            return TestResult(index=index, status=Verdict.PASSED,
                              actual_prefix=stdout[:_ACTUAL_PREFIX_CHARS])
        log_lines.append(
            f"test {index}: expected {_clip(test.expected_output.strip(), 200)!r}, "
            f"got {_clip(stdout.strip(), 200)!r}, input {_clip(test.input.strip(), 200)!r}"
        )
        return TestResult(index=index, status=Verdict.WRONG_ANSWER,
                          actual_prefix=stdout[:_ACTUAL_PREFIX_CHARS])
