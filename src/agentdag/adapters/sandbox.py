"""Local subprocess executor: desk-scale judging, not a security boundary."""

from __future__ import annotations

import os
import resource
import selectors
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

from ..config import ExecutorConfig, LanguageSpec
from ..problem import TestCase
from ..verdicts import ExecOutcome, TestResult, Verdict, classify_verdict, outputs_match
from .base import SandboxError

_ACTUAL_PREFIX_CHARS = 160
_COMPILE_TIMEOUT_S = 30.0
_READ_CHUNK = 65536
# The only variables that candidates and compilers see of the caller's
# environment; API keys and PYTHONPATH stay behind.
_ENV_KEYS = ("PATH", "LANG")


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit] + "…"


def _decode(data: bytes) -> str:
    """Text as a text-mode pipe would give it: UTF-8 with universal newlines."""
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def _child_env() -> dict[str, str]:
    return {key: os.environ[key] for key in _ENV_KEYS if key in os.environ}


def _child_setup(memory_limit_mb: int, pid_fd: int):
    """Pre-exec hook: report the child's pid, which is also the id of the
    session and process group it leads, and cap its address space."""
    limit_bytes = memory_limit_mb * 1024 * 1024

    def apply():
        os.write(pid_fd, os.getpid().to_bytes(4, "little"))
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return apply


class _Watchdog:
    """Watches one candidate process from a thread of its own.

    The candidate's stdout and stderr go to pipes that the thread drains as
    output comes: it keeps the first ``cap + 1`` bytes of each stream, one
    more than a clip needs, and reads and discards the rest, so the child
    never blocks on a full pipe and the judge's memory stays bounded. The
    child reports its pid through a third pipe, which starts its clock; when
    the time limit passes, the thread kills the child's process group.
    """

    def __init__(self, cap: int, time_limit_ms: int):
        self._keep = cap + 1
        self._limit_s = time_limit_ms / 1000.0
        self._out_r, self.out_w = os.pipe()
        self._err_r, self.err_w = os.pipe()
        self._pid_r, self.pid_w = os.pipe()
        self._stop_r, self._stop_w = os.pipe()
        for fd in (self._out_r, self._err_r, self._pid_r):
            os.set_blocking(fd, False)
        self._data = {self._out_r: bytearray(), self._err_r: bytearray()}
        self._pid: int | None = None
        self.timed_out = False
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _read(self, fd: int) -> bool:
        """Reads one chunk; False at end of file."""
        chunk = os.read(fd, _READ_CHUNK)
        kept = self._data[fd]
        if len(kept) < self._keep:
            kept += chunk[:self._keep - len(kept)]
        return bool(chunk)

    def _read_pid(self) -> None:
        try:
            self._pid = int.from_bytes(os.read(self._pid_r, 4), "little") or None
        except BlockingIOError:  # the child was never started
            pass

    def _kill_group(self) -> None:
        if self._pid is not None:
            try:
                os.killpg(self._pid, signal.SIGKILL)
            except ProcessLookupError:  # nothing is left in it
                pass

    def _watch(self) -> None:
        deadline = None
        with selectors.DefaultSelector() as selector:
            for fd in (self._out_r, self._err_r, self._pid_r, self._stop_r):
                selector.register(fd, selectors.EVENT_READ)
            while True:
                # Checked on every pass: a flood of output keeps select() busy.
                if deadline is not None and time.monotonic() >= deadline:
                    self.timed_out = True
                    self._kill_group()
                    deadline = None
                timeout = None if deadline is None else deadline - time.monotonic()
                for key, _ in selector.select(timeout):
                    if key.fd == self._stop_r:
                        self._stop(selector)
                        return
                    if key.fd == self._pid_r:
                        self._read_pid()
                        selector.unregister(self._pid_r)
                        deadline = time.monotonic() + self._limit_s
                    elif not self._read(key.fd):
                        selector.unregister(key.fd)

    def _stop(self, selector: selectors.BaseSelector) -> None:
        if self._pid is None:
            self._read_pid()
        self._kill_group()
        # Take only what the pipes hold now: a writer that escaped the group
        # must not keep the judge reading.
        for fd in self._data:
            if fd in selector.get_map():
                try:
                    while len(self._data[fd]) < self._keep and self._read(fd):
                        pass
                except BlockingIOError:
                    pass

    def finish(self) -> tuple[bytes, bytes]:
        """Once the child has exited: kills whatever it left running in its
        process group and returns (stdout, stderr), without waiting for a
        process that still holds the pipes."""
        for fd in (self.out_w, self.err_w, self.pid_w):
            os.close(fd)
        os.write(self._stop_w, b"\0")
        self._thread.join()
        for fd in (self._out_r, self._err_r, self._pid_r, self._stop_r, self._stop_w):
            os.close(fd)
        return bytes(self._data[self._out_r]), bytes(self._data[self._err_r])


class LocalExecutor:
    """Runs candidate programs under wall-time and address-space limits.

    Each candidate runs in a session of its own, in the judge's temporary
    workdir, with only ``PATH`` and ``LANG`` of the caller's environment; its
    output is read as it comes and kept up to ``max_output_bytes``.
    Compilations are serialized per language toolchain; concurrent
    ``execute`` calls are throttled by the configured worker cap. POSIX only.
    """

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig()
        self._workers = threading.Semaphore(self.config.workers)
        self._compile_locks: dict[str, threading.Lock] = {
            tag: threading.Lock() for tag in self.config.languages
        }

    # -- public API ---------------------------------------------------------

    def execute(self, source: str, language: str | None, tests: Sequence[TestCase], *,
                time_limit_ms: int, memory_limit_mb: int) -> ExecOutcome:
        if not source.strip():
            raise SandboxError("refusing to judge an empty program")
        if not tests:
            raise SandboxError("refusing to judge without tests")
        tag = language or self.config.default_language
        spec = self.config.languages.get(tag)
        if spec is None:
            raise SandboxError(f"no toolchain configured for language {tag!r}")

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
                self._run_test(run_cmd, workdir, i, test, time_limit_ms, memory_limit_mb,
                               log_lines)
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
                    cwd=src_path.parent, env=_child_env(),
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise SandboxError(f"compiler unavailable or hung: {exc}") from exc
        if proc.returncode != 0:
            message = f"compilation failed (exit {proc.returncode}): {_clip(proc.stderr, 800)}"
            log_lines.append(message)
            return message
        return None

    def _spawn(self, run_cmd: list[str], workdir: str, stdin: str, time_limit_ms: int,
               memory_limit_mb: int) -> tuple[int | None, bytes, bytes]:
        """Runs one candidate process in a session of its own.

        Returns its exit code, or None when it ran out of time, and the
        captured stdout and stderr.
        """
        watchdog = _Watchdog(self.config.max_output_bytes, time_limit_ms)
        try:
            # No timeout here: the watchdog enforces it, and a timed run()
            # would poll for the child's exit with growing sleeps.
            proc = subprocess.run(
                run_cmd,
                input=stdin.encode("utf-8"),
                stdout=watchdog.out_w,
                stderr=watchdog.err_w,
                cwd=workdir,
                env=_child_env(),
                start_new_session=True,
                preexec_fn=_child_setup(memory_limit_mb, watchdog.pid_w),
            )
        except OSError as exc:
            raise SandboxError(f"failed to launch candidate program: {exc}") from exc
        finally:
            stdout, stderr = watchdog.finish()
        return (None if watchdog.timed_out else proc.returncode), stdout, stderr

    def _run_test(self, run_cmd: list[str], workdir: str, index: int, test: TestCase,
                  time_limit_ms: int, memory_limit_mb: int,
                  log_lines: list[str]) -> TestResult:
        returncode, out, err = self._spawn(run_cmd, workdir, test.input, time_limit_ms,
                                           memory_limit_mb)
        if returncode is None:
            log_lines.append(f"test {index}: time limit exceeded ({time_limit_ms} ms)")
            return TestResult(index=index, status=Verdict.TIME_LIMIT_EXCEEDED)

        stdout = _clip(_decode(out), self.config.max_output_bytes)
        stderr = _decode(err)

        if returncode != 0:
            if "MemoryError" in stderr or returncode == -signal.SIGKILL:
                log_lines.append(f"test {index}: memory limit exceeded ({memory_limit_mb} MB)")
                return TestResult(index=index, status=Verdict.MEMORY_LIMIT_EXCEEDED)
            log_lines.append(
                f"test {index}: runtime error (exit {returncode}); "
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
