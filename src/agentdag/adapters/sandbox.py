"""Local subprocess executor: desk-scale judging, not a security boundary."""

from __future__ import annotations

import marshal
import os
import select
import signal
import subprocess
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
from .base import SandboxError

_ACTUAL_PREFIX_CHARS = 160
_COMPILE_TIMEOUT_S = 30.0
# How long the judge waits for a harness beyond the sum of its tests' limits.
_HARNESS_SLACK_S = 5.0
# The only variables that candidates and compilers see of the caller's
# environment; API keys and PYTHONPATH stay behind.
_ENV_KEYS = ("PATH", "LANG")

# A harness is a long-lived ``python3 -I -S -c`` process that judges one
# candidate per job. A job is a length-prefixed marshal tuple ``(workdir,
# code, argv, inputs, limit_s, limit_as, keep)`` read from stdin; for each
# input the harness forks a child that moves to ``workdir`` and leads a
# session of its own under RLIMIT_AS. A child runs ``code`` itself with
# ``sys.argv = ["-c", *argv]``, as ``python3 -I -S -c code *argv`` would, or
# execs ``argv`` when ``code`` is None. The harness feeds the child's stdin,
# keeps the first ``keep`` bytes of its stdout and stderr, and kills its
# process group when it exits or its time is up. It replies on stdout in
# length-prefixed marshal frames: ``("pid", pid)`` once a child is forked,
# then ``("result", (exit code or None on timeout, stdout, stderr, ended by
# an uncaught MemoryError))``, or ``("error", why)`` when the child could not
# start, which ends the job. Every job ends with ``("end", retiring)``; a
# harness whose address-space size is no longer the one it had when it became
# ready retires, so that every test starts from the footprint of a fresh
# harness. It exits at end of file on stdin. Its imports are kept light (no
# signal, which pulls in enum), and it never touches sys.stdin or sys.stdout,
# so a child inherits them unread and unwritten.
_HARNESS = """\
import marshal, os, resource, select, sys, time

SIGKILL = 9


def read_exactly(size):
    # None at end of file.
    buffer = bytearray(size)
    view = memoryview(buffer)
    done = 0
    while done < size:
        count = os.readv(0, [view[done:]])
        if not count:
            return None
        done += count
    return buffer


def read_job():
    size = read_exactly(8)
    data = size and read_exactly(int.from_bytes(size, "little"))
    return data and marshal.loads(data)


def send(frame):
    data = marshal.dumps(frame)
    data = memoryview(len(data).to_bytes(8, "little") + data)
    while data:
        data = data[os.write(1, data):]


def footprint():
    # The address-space size, in pages, that a child forked now would start with.
    fd = os.open("/proc/self/statm", os.O_RDONLY)
    try:
        return int(os.read(fd, 64).split()[0])
    finally:
        os.close(fd)


def exit_status(code):
    # As the interpreter reads the code of an uncaught SystemExit.
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    try:
        print(code, file=sys.stderr)
    except BaseException:
        pass
    return 1


def finish(status):
    # What the interpreter does at exit before it tears down its heap; the
    # teardown is left out, because in a fork it would copy the harness's.
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit = sys.modules.get("atexit")
    if atexit is not None:
        atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BaseException:
        status = 120
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except BaseException:
        pass
    return status


def child(in_r, out_w, err_w, report_w, others):
    try:
        os.chdir(workdir)
        os.setsid()
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))
        os.dup2(in_r, 0)
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        for fd in (in_r, out_w, err_w, *others):
            os.close(fd)
        if code is None:
            import _signal
            for signum in (_signal.SIGPIPE, _signal.SIGXFSZ):
                _signal.signal(signum, _signal.SIG_DFL)
            os.execvp(argv[0], argv)
    except BaseException as exc:
        try:
            os.write(report_w, b"!" + str(exc).encode("utf-8", "replace"))
        finally:
            os._exit(127)
    status = 1
    try:
        sys.argv = ["-c", *argv]
        sys.setrecursionlimit(sys.getrecursionlimit() + 2)
        memory_error = False
        try:
            exec(code, {"__name__": "__main__", "__builtins__": __builtins__})
            status = 0
        except SystemExit as exc:
            status = exit_status(exc.code)
            memory_error = isinstance(exc.__context__, MemoryError)
        except BaseException as exc:
            sys.excepthook(type(exc), exc, exc.__traceback__.tb_next)
            memory_error = isinstance(exc, MemoryError)
        status = finish(status)
        if memory_error:
            os.write(report_w, b"M")
    finally:
        os._exit(status)


def take(fd, kept):
    # Reads one chunk and keeps it up to the cap; False at end of file.
    chunk = os.read(fd, 65536)
    if len(kept) < keep:
        kept += chunk[:keep - len(kept)]
    return bool(chunk)


def supervise(pid, deadline, data, in_w, out_r, err_r):
    pidfd = os.pidfd_open(pid)
    kept = {out_r: bytearray(), err_r: bytearray()}
    readers = [out_r, err_r, pidfd]
    pending = memoryview(data)
    timed_out = False
    while True:
        if not pending and in_w is not None:
            os.close(in_w)
            in_w = None
        # Checked on every pass: a flood of output keeps select() busy.
        left = deadline - time.monotonic()
        if left <= 0:
            timed_out = True
            break
        writers = [] if in_w is None else [in_w]
        readable, writable, _ = select.select(readers, writers, [], left)
        for fd in readable:
            if fd != pidfd and not take(fd, kept[fd]):
                readers.remove(fd)
        if writable:
            try:
                pending = pending[os.write(in_w, pending):]
            except BlockingIOError:
                pass
            except BrokenPipeError:
                pending = pending[:0]
        if pidfd in readable:
            break
    try:
        os.killpg(pid, SIGKILL)
    except ProcessLookupError:  # the child ended before it led a group
        os.kill(pid, SIGKILL)
    # Take only what the pipes hold now: a writer that escaped the group
    # must not keep the harness reading.
    for fd in (out_r, err_r):
        try:
            while fd in readers and len(kept[fd]) < keep and take(fd, kept[fd]):
                pass
        except BlockingIOError:
            pass
    _, status = os.waitpid(pid, 0)
    for fd in (pidfd, out_r, err_r):
        os.close(fd)
    if in_w is not None:
        os.close(in_w)
    returncode = None if timed_out else os.waitstatus_to_exitcode(status)
    return returncode, bytes(kept[out_r]), bytes(kept[err_r])


# The first compile() in a process builds the compiler's AST types, about
# 2 ms; built here once, they are not built again in every child.
compile("", "<harness>", "exec")
# The first 64 KB read buffer grows the heap for good; allocated here, that
# growth is part of the footprint every child starts with.
bytes(65536)
ready = footprint()
while job := read_job():
    workdir, code, argv, inputs, limit_s, limit_as, keep = job
    for data in inputs:
        in_r, in_w = os.pipe()
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        report_r, report_w = os.pipe()
        for fd in (in_w, out_r, err_r, report_r):
            os.set_blocking(fd, False)
        deadline = time.monotonic() + limit_s
        pid = os.fork()
        if pid == 0:
            child(in_r, out_w, err_w, report_w, (in_w, out_r, err_r, report_r))
        for fd in (in_r, out_w, err_w, report_w):
            os.close(fd)
        send(("pid", pid))
        returncode, out, err = supervise(pid, deadline, data, in_w, out_r, err_r)
        try:
            report = os.read(report_r, 65536)
        except BlockingIOError:  # held open by a process that escaped the group
            report = b""
        os.close(report_r)
        if report.startswith(b"!"):
            send(("error", report[1:].decode("utf-8", "replace")))
            break
        send(("result", (returncode, out, err, report == b"M")))
    # Dropped before the footprint is taken: a job's inputs may have grown
    # the heap, and every later child would start with the growth.
    job = inputs = data = out = err = None
    retiring = footprint() != ready
    send(("end", retiring))
    if retiring:
        break
os._exit(0)
"""


def _clip(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit] + "…"


def _decode(data: bytes) -> str:
    """Text as a text-mode pipe would give it: UTF-8 with universal newlines."""
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def _child_env() -> dict[str, str]:
    return {key: os.environ[key] for key in _ENV_KEYS if key in os.environ}


class _Harness:
    """One harness process, owned by the process that spawned it, and the
    judge's ends of its pipes."""

    def __init__(self):
        job_r, self.jobs = os.pipe()
        self.replies, reply_w = os.pipe()
        self.errors, err_w = os.pipe()
        argv = [sys.executable, "-I", "-S", "-c", _HARNESS]
        actions = [(os.POSIX_SPAWN_DUP2, job_r, 0), (os.POSIX_SPAWN_DUP2, reply_w, 1),
                   (os.POSIX_SPAWN_DUP2, err_w, 2)]
        try:
            self.pid = os.posix_spawn(argv[0], argv, _child_env(), file_actions=actions,
                                      setsid=True)
        except OSError:
            for fd in (self.jobs, self.replies, self.errors):
                os.close(fd)
            raise
        finally:
            for fd in (job_r, reply_w, err_w):
                os.close(fd)
        self.owner = os.getpid()
        self.closed = False
        for fd in (self.jobs, self.replies, self.errors):
            os.set_blocking(fd, False)

    def judge(self, job: bytes, count: int,
              timeout_s: float) -> tuple[list[tuple], int | None, str | None]:
        """Sends one job of ``count`` tests and reads its frames.

        Returns the results in order, the pid of a child left without one,
        and None, or how the harness ended when it died, ran out of time or
        wrote a frame out of step. A harness that ended or retires is closed;
        one that could not launch the program is closed and raises. No wait
        outlasts the timeout.
        """
        deadline = time.monotonic() + timeout_s
        pending = memoryview(len(job).to_bytes(8, "little") + job)
        buffer = bytearray()
        results: list[tuple] = []
        running = None  # the pid of a child that has no result yet
        # poll, not select: the judge's own descriptors may be past FD_SETSIZE.
        poller = select.poll()
        poller.register(self.replies, select.POLLIN)
        poller.register(self.jobs, select.POLLOUT)
        while True:
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
            while len(buffer) >= 8:
                size = int.from_bytes(buffer[:8], "little")
                if len(buffer) < 8 + size:
                    break
                try:
                    tag, payload = marshal.loads(buffer[8:8 + size])
                except (EOFError, ValueError, TypeError):
                    tag = payload = None
                del buffer[:8 + size]
                if tag == "pid" and running is None:
                    running = payload
                elif tag == "result" and running is not None:
                    results.append(payload)
                    running = None
                elif tag == "error":
                    self.close()
                    raise SandboxError(f"failed to launch candidate program: {payload}")
                elif tag == "end" and running is None and len(results) == count \
                        and not buffer:
                    if payload:  # it retires
                        self.close()
                    return results, None, None
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

    One harness process judges all tests of a candidate. Harnesses live
    across candidates: each is spawned on the first ``execute`` that finds
    none idle, at most one per configured worker, and is replaced when it
    ends abnormally. Each test runs in a process and session of its own,
    forked from a harness, in the judge's temporary workdir, with only
    ``PATH`` and ``LANG`` of the caller's environment; its output is read as
    it comes and kept up to ``max_output_bytes``. Compilations are
    serialized per language toolchain; concurrent ``execute`` calls are
    throttled by the configured worker cap. Harnesses exit when their
    executor is garbage-collected or its process exits. Linux only (the
    harness watches its children through pidfds).
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
            # The command the harness itself would be: it runs the code in a
            # fork instead of starting an interpreter for it.
            in_fork = len(run_cmd) > 4 and run_cmd[:4] == [sys.executable, "-I", "-S", "-c"]
            code, argv = (run_cmd[4], run_cmd[5:]) if in_fork else (None, run_cmd)

            results, ending = self._run_harness(code, argv, workdir, tests, time_limit_ms,
                                                memory_limit_mb)
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

    def _run_harness(self, code: str | None, argv: list[str], workdir: str,
                     tests: Sequence[TestCase], time_limit_ms: int,
                     memory_limit_mb: int) -> tuple[list[tuple], str | None]:
        """Runs every test on one harness. Returns one result tuple per test
        that got one, in order, and how the harness ended, if it did; a
        harness that ended early leaves no process of the test it was
        running."""
        job = marshal.dumps((
            workdir, code, argv, [test.input.encode("utf-8") for test in tests],
            time_limit_ms / 1000, memory_limit_mb * 1024 * 1024,
            self.config.max_output_bytes + 1,
        ))
        timeout_s = len(tests) * time_limit_ms / 1000 + _HARNESS_SLACK_S
        harness = self._harness()
        try:
            results, running, ending = harness.judge(job, len(tests), timeout_s)
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
        return results, ending

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
            return _Harness()
        except OSError as exc:
            raise SandboxError(f"failed to start the judge harness: {exc}") from exc

    def _verdict(self, index: int, test: TestCase, result: tuple, in_fork: bool,
                 time_limit_ms: int, memory_limit_mb: int, log_lines: list[str]) -> TestResult:
        returncode, out, err, memory_error = result
        if returncode is None:
            log_lines.append(f"test {index}: time limit exceeded ({time_limit_ms} ms)")
            return TestResult(index=index, status=Verdict.TIME_LIMIT_EXCEEDED)

        stdout = _clip(_decode(out), self.config.max_output_bytes)
        stderr = _decode(err)

        if returncode != 0:
            # A fork knows how its program ended; an exec'd one has only its
            # stderr to go by.
            if (memory_error if in_fork else "MemoryError" in stderr):
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
