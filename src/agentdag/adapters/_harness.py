"""The judge harness, run as ``python3 -I -S`` on this file: a long-lived
process that judges one candidate per job, and imports nothing of agentdag.

Both ways it speaks in frames, a marshalled value after its size in 8
little-endian bytes, spelled out only here: the judge writes jobs with
``job_frame`` and splits replies with ``split_replies``. For each input of a
job ``(workdir, code, argv, inputs, limit_s, limit_as, keep)``, read from
stdin, the harness forks a child that moves to ``workdir`` and leads a session
of its own under RLIMIT_AS. A child runs ``code`` itself with ``sys.argv =
["-c", *argv]``, as ``python3 -I -S -c code *argv`` would, or execs ``argv``
when ``code`` is None. The harness feeds the child's stdin, keeps the first
``keep`` bytes of its stdout and stderr, and kills its process group when it
exits or its time is up. It replies on stdout with ``("pid", pid)`` once a
child is forked, then ``("result", (exit code or None on timeout, stdout,
stderr, ended by an uncaught MemoryError))``, or ``("error", why)`` when the
child could not start, which ends the job. Every job ends with ``("end",
retiring)``; a harness whose address-space size is no longer the one it had
when it became ready retires, so that every test starts from the footprint of
a fresh harness. It exits at end of file on stdin. Its imports are kept light
(no signal, which pulls in enum), and it never touches sys.stdin or
sys.stdout, so a child inherits them unread and unwritten.
"""

import _signal, marshal, os, resource, select, sys, time


def read_job(jobs):
    # False at end of file; a buffered read blocks until it has all it asked for.
    size = int.from_bytes(jobs.read(8), "little")
    data = jobs.read(size)
    return len(data) == size > 0 and marshal.loads(data)


def frame(value):
    data = marshal.dumps(value)
    return len(data).to_bytes(8, "little") + data


def job_frame(workdir, code, argv, inputs, limit_s, limit_as, keep):
    return frame((workdir, code, argv, inputs, limit_s, limit_as, keep))


def split_replies(buffer):
    # Takes each whole frame off ``buffer``; one that does not decode is (None, None).
    while len(buffer) >= 8 + (size := int.from_bytes(buffer[:8], "little")):
        try:
            tag, payload = marshal.loads(buffer[8:8 + size])
        except (EOFError, ValueError, TypeError):
            tag = payload = None
        del buffer[:8 + size]
        yield tag, payload


def send(tag, payload):
    data = memoryview(frame((tag, payload)))
    while data:
        data = data[os.write(1, data):]


def footprint():
    # The address-space size, in pages, that a child forked now would start with.
    with open("/proc/self/statm", "rb", buffering=0) as statm:
        return int(statm.read(64).split()[0])


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


def child(workdir, code, argv, limit_as, in_r, out_w, err_w, report_w, others):
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


def take(fd, kept, keep):
    # Reads one chunk and keeps it up to the cap; False at end of file.
    chunk = os.read(fd, 65536)
    kept += chunk[:keep - len(kept)]
    return bool(chunk)


def supervise(pid, deadline, data, keep, in_w, out_r, err_r):
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
            if fd != pidfd and not take(fd, kept[fd], keep):
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
        os.killpg(pid, _signal.SIGKILL)
    except ProcessLookupError:  # the child ended before it led a group
        os.kill(pid, _signal.SIGKILL)
    # Take only what the pipes hold now: a writer that escaped the group
    # must not keep the harness reading.
    for fd in (out_r, err_r):
        try:
            while fd in readers and len(kept[fd]) < keep and take(fd, kept[fd], keep):
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


def main():
    # Yields child()'s arguments only in a forked child: the job stays alive, the stack shallow.
    # The first compile() in a process builds the compiler's AST types, about
    # 2 ms; built here once, they are not built again in every child.
    compile("", "<harness>", "exec")
    # The first 64 KB read buffer, and the job reader's, grow the heap for good;
    # allocated here, that growth is part of the footprint every child starts with.
    bytes(65536)
    jobs = open(0, "rb", closefd=False)
    # Enough live containers for the collector to move what start-up made into its oldest
    # generation, where the collections a test makes never walk, and so copy, its pages.
    [[] for _ in range(10000)]
    ready = footprint()
    while job := read_job(jobs):
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
                yield (workdir, code, argv, limit_as, in_r, out_w, err_w, report_w,
                       (in_w, out_r, err_r, report_r))
            for fd in (in_r, out_w, err_w, report_w):
                os.close(fd)
            send("pid", pid)
            returncode, out, err = supervise(pid, deadline, data, keep, in_w, out_r, err_r)
            try:
                report = os.read(report_r, 65536)
            except BlockingIOError:  # held open by a process that escaped the group
                report = b""
            os.close(report_r)
            if report.startswith(b"!"):
                send("error", report[1:].decode("utf-8", "replace"))
                break
            send("result", (returncode, out, err, report == b"M"))
        # Dropped before the footprint is taken: a job's inputs may have grown
        # the heap, and every later child would start with the growth.
        job = inputs = data = out = err = None
        retiring = footprint() != ready
        send("end", retiring)
        if retiring:
            break
    os._exit(0)


if __name__ == "__main__":
    for forked in main():
        child(*forked)
