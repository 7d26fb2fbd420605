"""The trace's text format, and the process that writes ``trace.txt``.

A trace block is a list of lines: a packet record is the tuple
``(op, t, kind, id, src, dst, size)`` and any other line is its text
without the newline. ``format_block`` is the one place a block becomes
text, in the simulating process for an in-memory trace and in the writer
process for ``trace.txt``.

``trace_sink`` picks where a run's blocks go. Where this process may
run on two CPUs or more, ``TraceWriter`` moves the formatting to a writer
process on another CPU, off the simulation's path. On one CPU the writer
would take the simulation's own CPU time and add the cost of sending
the blocks (18% more wall time for the builtin long-distance AODV run,
pinned to one core of a 2-core x86-64 host, CPython 3.11), so
``TraceFile`` formats and writes in this process.

``TraceWriter`` starts this file as a standalone script in a fresh
interpreter (``python -I -S tracewriter.py FD``), so the writer imports
only the standard library. ``TraceWriter`` opens the trace file and
passes the writer its descriptor FD. It sends each block over the
writer's stdin as a 4-byte little-endian length and the block's
``marshal`` bytes; the writer formats each block and appends it to the
file until its stdin closes.
The writer ignores SIGINT, so an interrupt reaches the simulating
process alone, which kills the writer; a writer error is reported on its
stderr, which ``TraceWriter`` reads.
"""

import marshal
import os
import signal
import subprocess
import sys

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # pipe sizes are set on Linux only
    F_SETPIPE_SZ = None

# bytes the pipe to a writer holds: several blocks' marshal bytes (about
# 160 KiB each), so send seldom waits while the writer formats; Linux's
# default limit for an unprivileged process (fs.pipe-max-size)
PIPE_BYTES = 1 << 20
# the text of one packet record (op, t, kind, id, src, dst, size); %.7f
# formats a float as {:.7f} does and %s an int as str() does
_RECORD = "%s %.7f %s %s %s %s %s\n"


def format_block(lines) -> str:
    """The newline-terminated text of a block of trace lines."""
    return "".join([_RECORD % line if type(line) is tuple else line + "\n"
                    for line in lines])


def trace_sink(path):
    """A ``TraceWriter`` for path, or a ``TraceFile`` on one CPU."""
    return TraceWriter(path) if _usable_cpus() > 1 else TraceFile(path)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class TraceFile:
    """This process formats the blocks sent to it into path. The same
    contract as ``TraceWriter``: whenever the block raises, no file is
    left at path."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "w")

    def send(self, lines) -> None:
        self._file.write(format_block(lines))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self._file.close()  # flushes, so a full disk may raise here
        except OSError:
            os.remove(self.path)
            raise
        if exc_type is not None:
            os.remove(self.path)


class TraceWriter:
    """A writer process that formats the blocks sent to it into path.

    As a context manager it joins the writer on a clean exit, after the
    writer has written its last block; otherwise it kills the writer and
    waits for it. A failed writer raises OSError naming path, from
    ``send`` or from the join. Whenever the block raises, no file is
    left at path.
    """

    def __init__(self, path):
        self.path = path
        # opened here, so a path that cannot be written fails before the run
        with open(path, "w") as trace:
            try:
                self.process = subprocess.Popen(  # the writer
                    [sys.executable, "-I", "-S", os.path.abspath(__file__),
                     str(trace.fileno())],
                    stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, pass_fds=(trace.fileno(),))
            except BaseException:
                os.remove(path)
                raise
        if F_SETPIPE_SZ is not None:
            try:
                fcntl(self.process.stdin, F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:  # over a limit the system sets; the default stays
                pass

    def send(self, lines) -> None:
        """Hand a block to the writer; lines may change once this returns."""
        data = marshal.dumps(lines)
        try:
            self.process.stdin.write(len(data).to_bytes(4, "little"))
            self.process.stdin.write(data)
        except BrokenPipeError:
            self._join()  # the writer has stopped reading: raise its error

    def _join(self) -> None:
        """Close the writer's input and wait for it; OSError if it failed."""
        _, err = self.process.communicate()
        if self.process.returncode:
            reason = (err.decode(errors="replace").strip().splitlines()
                      or [f"exit status {self.process.returncode}"])[-1]
            raise OSError(f"cannot write {self.path}: the trace writer "
                          f"failed: {reason}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._kill()
            return
        try:
            self._join()
        except BaseException:
            self._kill()
            raise

    def _kill(self) -> None:
        """Kill and reap the writer, then delete the trace file."""
        proc = self.process
        proc.kill()
        try:
            proc.stdin.close()
        except BrokenPipeError:  # a block still buffered for the dead writer
            pass
        proc.wait()
        proc.stderr.close()
        os.remove(self.path)


def main(fd) -> int:
    """Write the blocks arriving on stdin to the file open at fd; 1 on any
    error."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    read = sys.stdin.buffer.read
    try:
        with open(fd, "w") as out:
            while head := read(4):
                out.write(format_block(marshal.loads(
                    read(int.from_bytes(head, "little")))))
    except Exception as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    code = main(int(sys.argv[1]))
    sys.stderr.flush()
    # the run waits for this exit at its join: skip the interpreter's
    # teardown (about 5 ms), as nothing is left to release
    os._exit(code)
