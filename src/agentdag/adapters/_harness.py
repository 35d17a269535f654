"""The judge harness, run as ``python3 -I -S`` on this file: a long-lived
process, the package's only launcher, that runs one job per compile step,
candidate or corpus validator call, and imports nothing of agentdag.

Both ways it speaks in frames, a marshalled value after its size in 8
little-endian bytes, spelled out only here: the judge writes a setup with
``setup_frame`` and jobs with ``job_frame``, the harness writes results with
``result_frame``, and the judge splits replies with ``split_replies``. The
setup, read first from stdin, is the output cap ``keep``. A job is the frame
``(workdir, in_fork, argv, input sizes, limit_s, limit_as)``, then the inputs, raw.

For each input, the harness moves its bytes from stdin into an unlinked memfd
with ``splice``, never through its heap, and forks a child that takes that
file as its stdin, moves to ``workdir`` and leads a session of its own under
RLIMIT_AS. With ``in_fork`` set, a child runs the Python file ``argv[0]``
itself with ``sys.argv = argv``, as ``python3 -I -S *argv`` would; otherwise
it execs ``argv``, without the ``LC_CTYPE`` that the harness's own locale
coercion set. The harness reads the child's stdout and stderr into
buffers of ``keep`` bytes allocated at start-up, so that no output grows its
heap, throws away what does not fit, and kills its process group when it
exits or its time is up. It replies on stdout with ``("pid", pid)`` once a
child is forked, then ``("result", (exit code or None on timeout, stdout
size, stderr size, report))`` followed by the kept bytes of stdout and of
stderr, raw, or ``("error", why)`` when the child could not start, after
which it exits. The report is "", "M" after a MemoryError, or "C" and the
error when compiling ``argv[0]`` raises one. A job ends at its last result or
at a "C" one, whose other inputs are read, not run. The harness exits at
end of file on stdin. Its imports are kept light (no signal, which pulls in
enum), and it never touches sys.stdin or sys.stdout, so a child inherits
them unread and unwritten.
"""

import _signal, builtins, marshal, os, resource, select, sys, time


def read_exact(fd, size):
    # Fewer bytes only at end of file, and never more: an input follows a job's frame.
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def read_frame(fd):
    # False at end of file.
    size = int.from_bytes(read_exact(fd, 8), "little")
    data = read_exact(fd, size)
    return len(data) == size > 0 and marshal.loads(data)


def read_input(fd, size):
    # An unlinked file, read from its start, that holds the next ``size``
    # bytes of the pipe ``fd``; the kernel moves them. None at end of file.
    stdin = os.memfd_create("stdin")
    while size and (moved := os.splice(fd, stdin, size)):
        size -= moved
    if size:
        os.close(stdin)
        return None
    os.lseek(stdin, 0, os.SEEK_SET)
    return stdin


def frame(value):
    data = marshal.dumps(value)
    return len(data).to_bytes(8, "little") + data


def setup_frame(keep):
    return frame(keep)


def job_frame(workdir, in_fork, argv, inputs, limit_s, limit_as):
    sizes = [len(data) for data in inputs]
    return frame((workdir, in_fork, argv, sizes, limit_s, limit_as)) + b"".join(inputs)


def split_replies(buffer):
    # Takes each whole reply off ``buffer``, a result with its output bytes in
    # place of their sizes; a frame that does not decode is (None, None).
    while len(buffer) >= 8 + (size := int.from_bytes(buffer[:8], "little")):
        end = 8 + size
        try:
            tag, payload = marshal.loads(buffer[8:end])
            if tag == "result":
                returncode, out, err, report = payload
                if len(buffer) < end + out + err:
                    return
                payload = (returncode, bytes(buffer[end:end + out]),
                           bytes(buffer[end + out:end + out + err]), report)
                end += out + err
        except (EOFError, ValueError, TypeError):
            tag = payload = None
        del buffer[:end]
        yield tag, payload


def result_frame(returncode, out, err, report):
    # A result's frame holds the sizes of its outputs; their bytes follow it as they are.
    return frame(("result", (returncode, len(out), len(err), report))), out, err


def send(*chunks):
    views = [memoryview(chunk) for chunk in chunks]
    while views:
        written = os.writev(1, views)
        while views and written >= len(views[0]):
            written -= len(views.pop(0))
        if views:
            views[0] = views[0][written:]


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
    # As the interpreter flushes them: it skips a stream that is None or reads
    # as closed, and a flush that fails makes the exit status 120.
    for stream in (sys.stdout, sys.stderr):
        try:
            closed = stream is None or stream.closed
        except BaseException:  # a ``closed`` that fails reads as not closed
            closed = False
        try:
            if not closed:
                stream.flush()
        except BaseException:
            status = 120
    # The teardown would also flush an original stream the program replaced,
    # ignoring a flush that fails.
    for stream in (sys.__stdout__, sys.__stderr__):
        if stream is not sys.stdout and stream is not sys.stderr:
            try:
                if not stream.closed:
                    stream.flush()
            except BaseException:
                pass
    return status


def child(workdir, in_fork, argv, limit_as, stdin, out_w, err_w, report_w, others):
    try:
        os.chdir(workdir)
        os.setsid()
        resource.setrlimit(resource.RLIMIT_AS, (limit_as, limit_as))
        os.dup2(stdin, 0)
        os.dup2(out_w, 1)
        os.dup2(err_w, 2)
        for fd in (stdin, out_w, err_w, *others):
            os.close(fd)
        if not in_fork:
            for signum in (_signal.SIGPIPE, _signal.SIGXFSZ):
                _signal.signal(signum, _signal.SIG_DFL)
            # Set by the harness's locale coercion (PEP 538), never by the judge.
            os.unsetenv("LC_CTYPE")
            os.execvp(argv[0], argv)
    except BaseException as exc:
        try:
            os.write(report_w, b"!" + str(exc).encode("utf-8", "replace"))
        finally:
            os._exit(127)
    status = 1
    try:
        sys.argv = argv
        module = sys.modules["__main__"] = type(sys)("__main__")
        module.__file__ = argv[0]
        # As in a plain script; a function made from the program takes its builtins from here.
        module.__builtins__ = builtins
        # The frames of this module and of this function sit below the program's own.
        sys.setrecursionlimit(sys.getrecursionlimit() + 2)
        memory_error = interrupted = False
        program = None
        try:
            with open(argv[0], "rb") as source:
                # Not this module's compiler flags, which a future import here would set.
                program = compile(source.read(), argv[0], "exec", dont_inherit=True)
            # Called as a function, not through exec(), whose C call takes a
            # recursion slot or not as this function happens to be specialized.
            type(finish)(program, vars(module))()
            status = 0
        except SystemExit as exc:
            status = exit_status(exc.code)
            # A program that exits on catching a MemoryError ran out of memory too.
            memory_error = isinstance(exc.__context__, MemoryError)
        except BaseException as exc:
            # Without this frame, as the interpreter shows an error in a script.
            exc.__traceback__ = exc.__traceback__.tb_next
            sys.excepthook(type(exc), exc, exc.__traceback__)
            if program is None:  # the compile's own: the program never ran
                why = f"{exc.msg} (line {exc.lineno})" if isinstance(exc, SyntaxError) else str(exc)
                report = f"C{type(exc).__name__}" + (f": {why}" if why else "")
                os.write(report_w, report.encode("utf-8", "replace"))
            else:
                memory_error = isinstance(exc, MemoryError)
                interrupted = type(exc) is KeyboardInterrupt  # as the interpreter checks it
        status = finish(status)
        if memory_error:
            os.write(report_w, b"M")
        if interrupted:
            # The interpreter ends by SIGINT here, so that its caller sees the interrupt.
            _signal.signal(_signal.SIGINT, _signal.SIG_DFL)
            os.kill(os.getpid(), _signal.SIGINT)
            status = 130  # reached only while the program keeps SIGINT blocked
    finally:
        os._exit(status)


def supervise(pid, deadline, outputs, spill):
    # Returns the exit code, or None on timeout, and how much of each output
    # fits its buffer; the rest of each goes to ``spill``, to be overwritten.
    pidfd = os.pidfd_open(pid)
    kept = dict.fromkeys(outputs, 0)
    readers = [*outputs, pidfd]
    timed_out = False

    def take(fd):
        # Reads one chunk; False at end of file.
        size = os.readv(fd, [outputs[fd][kept[fd]:], spill])
        kept[fd] = min(kept[fd] + size, len(outputs[fd]))
        return size > 0

    while True:
        # Checked on every pass: a flood of output keeps select() busy.
        left = deadline - time.monotonic()
        if left <= 0:
            timed_out = True
            break
        readable, _, _ = select.select(readers, [], [], left)
        for fd in readable:
            if fd != pidfd and not take(fd):
                readers.remove(fd)
        if pidfd in readable:
            break
    try:
        os.killpg(pid, _signal.SIGKILL)
    except ProcessLookupError:  # the child ended before it led a group
        os.kill(pid, _signal.SIGKILL)
    # Take only what the pipes hold now: a writer that escaped the group
    # must not keep the harness reading.
    for fd in outputs:
        try:
            while fd in readers and kept[fd] < len(outputs[fd]) and take(fd):
                pass
        except BlockingIOError:
            pass
    _, status = os.waitpid(pid, 0)
    for fd in (pidfd, *outputs):
        os.close(fd)
    returncode = None if timed_out else os.waitstatus_to_exitcode(status)
    return returncode, *kept.values()


def main():
    # Yields child()'s arguments only in a forked child: the job stays alive, the stack shallow.
    # The first compile() in a process builds the compiler's AST types, about
    # 2 ms; built here once, they are not built again in every child.
    compile("", "<harness>", "exec")
    # As site binds them for ``python3 FILE``; -S leaves them out.
    builtins.exit = builtins.quit = sys.exit
    keep = read_frame(0) or 1
    # Output is read into these and sent from them, so no test's output grows the heap.
    out, err, spill = bytearray(keep), bytearray(keep), bytearray(65536)
    # Enough live containers for the collector to move what start-up made into its oldest
    # generation, where the collections a test makes never walk, and so copy, its pages.
    [[] for _ in range(10000)]
    while job := read_frame(0):
        workdir, in_fork, argv, sizes, limit_s, limit_as = job
        report = b""
        for size in sizes:
            stdin = read_input(0, size)
            if stdin is None:
                return
            if report.startswith(b"C"):  # the program does not compile: no test runs it
                os.close(stdin)
                continue
            out_r, out_w = os.pipe()
            err_r, err_w = os.pipe()
            report_r, report_w = os.pipe()
            for fd in (out_r, err_r, report_r):
                os.set_blocking(fd, False)
            deadline = time.monotonic() + limit_s
            pid = os.fork()
            if pid == 0:
                yield (workdir, in_fork, argv, limit_as, stdin, out_w, err_w, report_w,
                       (out_r, err_r, report_r))
            for fd in (stdin, out_w, err_w, report_w):
                os.close(fd)
            send(frame(("pid", pid)))
            returncode, n_out, n_err = supervise(
                pid, deadline, {out_r: memoryview(out), err_r: memoryview(err)}, spill)
            try:
                report = spill[:os.readv(report_r, [spill])]
            except BlockingIOError:  # held open by a process that escaped the group
                report = b""
            os.close(report_r)
            if report.startswith(b"!"):
                send(frame(("error", report[1:].decode("utf-8", "replace"))))
                return
            send(*result_frame(returncode, memoryview(out)[:n_out], memoryview(err)[:n_err],
                               report.decode("utf-8", "replace")))


if __name__ == "__main__":
    for forked in main():
        child(*forked)
    os._exit(0)
