"""Local executor: forks of long-lived harnesses judge candidates; not a security boundary."""

from __future__ import annotations

import os
import resource
import select
import signal
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path
from typing import Sequence

from ..config import ExecutorConfig, LanguageSpec
from ..problem import TestCase
from ..verdicts import ExecOutcome, TestResult, Verdict, classify_verdict, outputs_match
from ._harness import job_frame, setup_frame, split_replies
from .base import SandboxError

_ACTUAL_PREFIX_CHARS = 160
_COMPILE_TIMEOUT_S = 30.0
# How long the judge waits for a harness beyond the sum of its tests' limits.
_HARNESS_SLACK_S = 5.0
# The only variables that candidates and compilers see of the caller's
# environment; API keys and PYTHONPATH stay behind.
_ENV_KEYS = ("PATH", "LANG")


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit] + "…"


def _decode(data: bytes) -> str:
    """Text as a text-mode pipe would give it: UTF-8 with universal newlines."""
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


class _Harness:
    """One harness process, owned by the process that spawned it, and the
    judge's ends of its pipes. ``keep`` is its output cap, sent in the setup
    frame ahead of its first job."""

    def __init__(self, keep: int):
        job_r, self.jobs = os.pipe()
        self.replies, reply_w = os.pipe()
        self.errors, err_w = os.pipe()
        argv = [sys.executable, "-I", "-S", str(Path(__file__).with_name("_harness.py"))]
        actions = [(os.POSIX_SPAWN_DUP2, job_r, 0), (os.POSIX_SPAWN_DUP2, reply_w, 1),
                   (os.POSIX_SPAWN_DUP2, err_w, 2)]
        env = {key: os.environ[key] for key in _ENV_KEYS if key in os.environ}
        try:
            self.pid = os.posix_spawn(argv[0], argv, env, file_actions=actions, setsid=True)
        except OSError:
            for fd in (self.jobs, self.replies, self.errors):
                os.close(fd)
            raise
        finally:
            for fd in (job_r, reply_w, err_w):
                os.close(fd)
        self.owner = os.getpid()
        self.closed = False
        self.unsent = setup_frame(keep)
        for fd in (self.jobs, self.replies, self.errors):
            os.set_blocking(fd, False)

    def judge(self, job: bytes, count: int, timeout_s: float,
              what: str) -> tuple[list[tuple], int | None, str | None]:
        """Sends one job of ``count`` tests, after the setup if it is the
        first, and reads its frames; the job ends early at a result that
        reports a compile failure.

        Returns the results in order, the pid of a child left without one,
        and None, or how the harness ended when it died, ran out of time or
        wrote a frame out of step. A harness that ended is closed; one that
        could not launch the program is closed and raises. No wait outlasts
        the timeout. ``what`` names the program in that error.
        """
        deadline = time.monotonic() + timeout_s
        pending = memoryview(self.unsent + job)
        self.unsent = b""
        buffer = bytearray()
        results: list[tuple] = []
        running = None  # the pid of a child that has no result yet
        # poll, not select: the judge's own descriptors may be past FD_SETSIZE.
        poller = select.poll()
        poller.register(self.replies, select.POLLIN)
        poller.register(self.jobs, select.POLLOUT)
        while True:
            # A job cut short by a compile failure still goes out whole: the harness reads it all.
            if len(results) == count and not buffer and not pending:
                return results, None, None
            left = deadline - time.monotonic()
            if left <= 0:
                self.close()
                return results, running, f"timed out after {timeout_s:g} s"
            ready = dict(poller.poll(left * 1000))
            if self.jobs in ready:
                try:
                    pending = pending[os.write(self.jobs, pending):]
                except BlockingIOError:
                    pass
                except BrokenPipeError:  # the harness is gone; its end of file follows
                    pending = pending[:0]
                if not pending:
                    poller.unregister(self.jobs)
            if self.replies not in ready:
                continue
            chunk = os.read(self.replies, 65536)
            if not chunk:
                return results, running, self._ended()
            buffer += chunk
            for tag, payload in split_replies(buffer):
                if tag == "pid" and running is None and len(results) < count:
                    running = payload
                elif tag == "result" and running is not None:
                    results.append(payload)
                    running = None
                    if payload[3].startswith("C"):  # the program does not compile
                        count = len(results)
                elif tag == "error":
                    self.close()
                    raise SandboxError(f"failed to launch {what}: {payload}")
                else:
                    self.close()
                    return results, running, "wrote a frame out of step"

    def _ended(self) -> str:
        """Reaps a harness that closed its stdout and says how it ended."""
        try:
            err = os.read(self.errors, 65536)
        except BlockingIOError:
            err = b""
        returncode = self.close()
        if returncode < 0:
            return f"killed by signal {-returncode}"
        ending = f"exit {returncode}"
        if returncode != 0 and err.strip():
            ending += f": {_clip(_decode(err).strip(), 400)}"
        return ending

    def close(self) -> int | None:
        """Closes the judge's ends of the pipes and, in the process that
        spawned the harness, kills and reaps it; returns its exit code there.
        Only the first call does anything."""
        if self.closed:
            return None
        self.closed = True
        for fd in (self.jobs, self.replies, self.errors):
            os.close(fd)
        if self.owner != os.getpid():
            return None
        os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        return os.waitstatus_to_exitcode(status)


def _close_all(harnesses: list[_Harness]) -> None:
    while harnesses:
        harnesses.pop().close()


class LocalExecutor:
    """Runs candidate programs under wall-time and address-space limits.

    One harness process runs a candidate's compile step, if any, and all its
    tests. Harnesses live across candidates: each is spawned on the first
    ``execute`` that finds none idle, at most one per configured worker, and
    is replaced when it ends abnormally. Each compile step and test runs in a
    process and session of its own, forked from a harness, in the judge's
    temporary workdir, with only ``PATH`` and ``LANG`` of the caller's
    environment; its output is read as it comes and kept up to
    ``max_output_bytes``. Compilations are serialized per language toolchain;
    concurrent ``execute`` calls are throttled by the configured worker cap.
    Harnesses exit when their executor is garbage-collected or its process
    exits. Linux only (the harness watches its children through pidfds).
    """

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig()
        self._workers = threading.Semaphore(self.config.workers)
        self._compile_locks: dict[str, threading.Lock] = {
            tag: threading.Lock() for tag in self.config.languages
        }
        # Idle harnesses; one taken by an execute is returned when it is done.
        # Only list.pop() and list.append() touch it, each atomic.
        self._idle: list[_Harness] = []
        weakref.finalize(self, _close_all, self._idle)

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
            return ExecOutcome.compilation_error(
                len(tests), f"no toolchain configured for language {tag!r}")

        with self._workers:
            return self._judge(source, tag, spec, tests, time_limit_ms, memory_limit_mb)

    # -- internals ----------------------------------------------------------

    def _judge(self, source: str, tag: str, spec: LanguageSpec, tests: Sequence[TestCase],
               time_limit_ms: int, memory_limit_mb: int) -> ExecOutcome:
        with tempfile.TemporaryDirectory(prefix="agentdag-judge-") as workdir:
            src_path = Path(workdir) / spec.source_name
            # A lone surrogate goes to the file as bytes that fail the compile.
            src_path.write_text(source, encoding="utf-8", errors="surrogatepass")
            paths = {"src": str(src_path), "bin": str(Path(workdir) / "program")}

            compile_error = self._compile(tag, spec, workdir, paths)
            if compile_error is not None:
                return ExecOutcome.compilation_error(len(tests), compile_error)

            run_cmd = [arg.format(**paths) for arg in spec.run_cmd]
            if tag == "python":
                # Run under the same interpreter that is running us.
                run_cmd = [sys.executable if arg == "python3" else arg for arg in run_cmd]
            # The harness's own interpreter and flags, given a file: the harness
            # runs that file in a fork instead of starting an interpreter.
            in_fork = (len(run_cmd) > 3 and run_cmd[:3] == [sys.executable, "-I", "-S"]
                       and not run_cmd[3].startswith("-"))
            argv = run_cmd[3:] if in_fork else run_cmd

            results, ending = self._run_harness(
                in_fork, argv, workdir, [test.input.encode("utf-8") for test in tests],
                time_limit_ms / 1000, memory_limit_mb * 1024 * 1024, "candidate program")
        if results and results[-1][3].startswith("C"):  # the fork's compile failed
            return ExecOutcome.compilation_error(
                len(tests), f"compilation failed: {results[-1][3][1:]}")
        log_lines: list[str] = []
        per_test = [
            self._verdict(i, test, result, in_fork, time_limit_ms, memory_limit_mb, log_lines)
            for i, (test, result) in enumerate(zip(tests, results))
        ]
        if len(results) < len(tests):
            log_lines.append(f"judge harness ended after {len(results)} of {len(tests)} "
                             f"tests ({ending}); the rest are runtime errors")
            per_test += [TestResult(index=i, status=Verdict.RUNTIME_ERROR)
                         for i in range(len(results), len(tests))]
        verdict = classify_verdict([r.status for r in per_test])
        if verdict is Verdict.PASSED:
            log_lines.append(f"all {len(tests)} tests passed")
        return ExecOutcome(verdict=verdict, per_test=tuple(per_test), logs="\n".join(log_lines))

    def _compile(self, tag: str, spec: LanguageSpec, workdir: str,
                 paths: dict[str, str]) -> str | None:
        """Runs the language's compile step, if any, as a harness job of one
        test with no input: the log line of its failure, else None."""
        if spec.compile_cmd is None:
            return None
        cmd = [arg.format(**paths) for arg in spec.compile_cmd]
        with self._compile_locks[tag]:
            # Under no address-space limit but the judge's own.
            results, ending = self._run_harness(
                False, cmd, workdir, [b""], _COMPILE_TIMEOUT_S,
                resource.getrlimit(resource.RLIMIT_AS)[0], f"compiler {cmd[0]!r}")
        if not results:
            raise SandboxError(f"judge harness ended during the compile step ({ending})")
        returncode, _, err, _ = results[0]
        if returncode is None:
            return f"compilation timed out after {_COMPILE_TIMEOUT_S:g} s"
        if returncode != 0:
            return f"compilation failed (exit {returncode}): {_clip(_decode(err), 800)}"
        return None

    def _run_harness(self, in_fork: bool, argv: list[str], workdir: str, inputs: list[bytes],
                     limit_s: float, limit_as: int, what: str) -> tuple[list[tuple], str | None]:
        """Runs a test per input on one harness. Returns one result tuple per
        test that got one, in order, and how the harness ended, if it did; a
        harness that ended early leaves no process of the test it was
        running. Each result's stderr names the workdir's files by their own
        names: the workdir's is random, and logs should repeat."""
        job = job_frame(workdir, in_fork, argv, inputs, limit_s, limit_as)
        timeout_s = len(inputs) * limit_s + _HARNESS_SLACK_S
        harness = self._harness()
        try:
            results, running, ending = harness.judge(job, len(inputs), timeout_s, what)
        except BaseException:
            harness.close()
            raise
        if not harness.closed:
            self._idle.append(harness)
        if running is not None:
            try:
                os.killpg(running, signal.SIGKILL)
            except ProcessLookupError:  # nothing is left in it
                pass
        prefix = os.fsencode(workdir + os.sep)
        return [(returncode, out, err.replace(prefix, b""), report)
                for returncode, out, err, report in results], ending

    def _harness(self) -> _Harness:
        """An idle harness of this process, or a new one."""
        while True:
            try:
                harness = self._idle.pop()
            except IndexError:
                break
            if harness.owner == os.getpid():
                return harness
            harness.close()  # inherited by a fork: its spawner's to end
        try:
            return _Harness(self.config.max_output_bytes + 1)
        except OSError as exc:
            raise SandboxError(f"failed to start the judge harness: {exc}") from exc

    def _verdict(self, index: int, test: TestCase, result: tuple, in_fork: bool,
                 time_limit_ms: int, memory_limit_mb: int, log_lines: list[str]) -> TestResult:
        returncode, out, err, report = result
        if returncode is None:
            log_lines.append(f"test {index}: time limit exceeded ({time_limit_ms} ms)")
            return TestResult(index=index, status=Verdict.TIME_LIMIT_EXCEEDED)

        stdout = _clip(_decode(out), self.config.max_output_bytes)
        prefix = stdout[:_ACTUAL_PREFIX_CHARS]
        stderr = _decode(err)

        if returncode != 0:
            # A fork knows how its program ended; an exec'd one has only its
            # stderr to go by.
            if (report == "M" if in_fork else "MemoryError" in stderr):
                log_lines.append(f"test {index}: memory limit exceeded ({memory_limit_mb} MB)")
                return TestResult(index=index, status=Verdict.MEMORY_LIMIT_EXCEEDED)
            log_lines.append(
                f"test {index}: runtime error (exit {returncode}); "
                f"stderr: {_clip(stderr.strip(), 400)}"
            )
            return TestResult(index=index, status=Verdict.RUNTIME_ERROR, actual_prefix=prefix)

        if outputs_match(stdout, test.expected_output):
            return TestResult(index=index, status=Verdict.PASSED, actual_prefix=prefix)
        log_lines.append(
            f"test {index}: expected {_clip(test.expected_output.strip(), 200)!r}, "
            f"got {_clip(stdout.strip(), 200)!r}, input {_clip(test.input.strip(), 200)!r}"
        )
        return TestResult(index=index, status=Verdict.WRONG_ANSWER, actual_prefix=prefix)
