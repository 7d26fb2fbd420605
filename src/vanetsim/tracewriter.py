"""The trace and plot series formats, and the process that writes them.

A trace block is a list of records, one per line. A packet record is
``(op, t, kind, id, src, dst, size)`` with op ``s``, ``r`` or ``l``,
and its line ``<op> <t> <kind> <id> <src> <dst> <size>``; a mobility
record is ``("M", t, node, x, y, z, dest_x, dest_y, speed)``, and its
line ``M <t> <node> (<x>, <y>, <z>), (<dest_x>, <dest_y>), <speed>``.
``format_block`` is the one place a block becomes text, for
``trace.txt`` and for a trace kept in memory (``metrics.KeptTrace``);
``parse_mobility_trace`` reads the mobility records back, so that
``format_block`` of them is their lines. ``write_series`` is the one
place a plot series becomes a file, its ties in t nudged. ``TraceFile``
is the one writer of a run's files. It takes three kinds of message: a
trace block, appended to the trace file, and a series ``(path, unit,
points)`` or a text ``(path, text)``, written to its own file by
``write_text``.

``trace_sink`` picks where a ``TraceFile`` runs. Where this process may
run on two CPUs or more, ``TraceWriter`` runs it in a writer process on
another CPU, off the simulation's path. On one CPU the writer would take
the simulation's own CPU time and add the cost of sending the blocks
(18% more wall time for the builtin long-distance AODV run, pinned to
one core of a 2-core x86-64 host, CPython 3.11), so the ``TraceFile``
runs in this process. Either sink raises OSError
``cannot write <path>: <reason>`` naming the file it could not write.

``TraceWriter`` starts this file as a standalone script in a fresh
interpreter (``python -I -S tracewriter.py FD PATH``), so the writer
imports only the standard library. ``TraceWriter`` opens the trace file
at PATH and passes the writer its descriptor FD. It sends each message
over the writer's stdin as a 4-byte little-endian length and its
``marshal`` bytes; the writer hands each message to a ``TraceFile`` on
FD until its stdin closes.
The writer ignores SIGINT, so an interrupt reaches the simulating
process alone, which kills the writer; a writer error is reported on its
stderr, which ``TraceWriter`` reads.
"""

import contextlib
import marshal
import os
import re
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
# the text of one packet record (op, t, kind, id, src, dst, size) and of
# one mobility record ("M", t, node, x, y, z, dest_x, dest_y, speed); %.7f
# formats a float as {:.7f} does and %s an int as str() does
_RECORD = "%s %.7f %s %s %s %s %s\n"
_MOTION = "%s %.5f %s (%.2f, %.2f, %.2f), (%.2f, %.2f), %.2f\n"
_M_LINE = re.compile(r"^M (\S+) (\d+) \((\S+), (\S+), (\S+)\), "
                     r"\((\S+), (\S+)\), (\S+)$")


class TraceFormatError(ValueError):
    pass


def format_block(records) -> str:
    """The newline-terminated text of a block of trace records."""
    return "".join([(_MOTION if record[0] == "M" else _RECORD) % record
                    for record in records])


def parse_mobility_trace(text):
    """Extract mobility records; returns (records, skipped_line_count).

    Each record is the tuple ``format_block`` formats as its line. Lines
    of other types (packet events and so on) are skipped and counted; a
    line that starts like a mobility line but does not parse raises
    TraceFormatError naming the line number.
    """
    records = []
    skipped = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if not line.startswith("M "):
            skipped += 1
            continue
        m = _M_LINE.match(line)
        if not m:
            raise TraceFormatError(f"line {lineno}: malformed mobility line: {line!r}")
        try:
            records.append(("M", float(m[1]), int(m[2]),
                            *[float(m[i]) for i in range(3, 9)]))
        except ValueError:
            raise TraceFormatError(
                f"line {lineno}: non-numeric field in mobility line: {line!r}"
            ) from None
    return records, skipped


def nudge_ties(points) -> list:
    """Shift repeated x-values forward by 1 ns so plots stay functions."""
    out = []
    prev = float("-inf")
    for t, v in points:
        prev = prev + 1e-9 if t <= prev else t
        out.append((prev, v))
    return out


def write_text(path, text) -> None:
    """Write text to the file at path as given; OSError names path."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:  # a failed write or close names no file
        raise cannot_write(path, e) from None


def write_series(path, unit, points) -> None:
    """Write a plot series file: ``# unit`` if there are points, then one
    ``t v`` line of reprs per point, ties in t nudged first."""
    points = nudge_ties(points)
    write_text(path, f"# {unit}\n" + "".join(
        [f"{t!r} {v!r}\n" for t, v in points]) if points else "")


def cannot_write(path, e) -> OSError:
    """The error of a failed write to path: e's reason, or else its type
    and text."""
    reason = getattr(e, "strerror", None) or f"{type(e).__name__}: {e}"
    return OSError(f"cannot write {path}: {reason}")


def trace_sink(path):
    """A ``TraceWriter`` for path, or a ``TraceFile`` on one CPU."""
    return TraceWriter(path) if _usable_cpus() > 1 else TraceFile(path)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


class TraceFile:
    """The writer of a run's files: it writes each message as it is sent,
    trace blocks into path (or fd, a descriptor open on path), series and
    texts to their own files, under the contract of ``TraceWriter``."""

    def __init__(self, path, fd=None):
        self.path = path
        self._file = open(path if fd is None else fd, "w")

    def send(self, message) -> None:
        """Write a message: a trace block (a list) to the trace, a series
        ``(path, unit, points)`` or a text ``(path, text)`` to path."""
        if type(message) is list:
            try:
                self._file.write(format_block(message))
            except OSError as e:
                raise cannot_write(self.path, e) from None
        elif len(message) == 2:
            write_text(*message)
        else:
            write_series(*message)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            self._file.close()  # flushes, so a full disk may raise here
        except OSError as e:
            if exc_type is None:  # else the block's own error goes on
                raise cannot_write(self.path, e) from None


class TraceWriter:
    """A writer process that runs a ``TraceFile`` on path.

    As a context manager it joins the writer on a clean exit, after the
    writer has handled its last message; otherwise it kills the writer
    and waits for it. A failed writer raises OSError naming the file it
    could not write, from ``send`` or from the join. The files written
    are left for the caller to remove.
    """

    def __init__(self, path):
        self.path = path
        # opened here, so a path that cannot be written fails before the run
        with open(path, "w") as trace:
            self.process = subprocess.Popen(  # the writer
                [sys.executable, "-I", "-S", os.path.abspath(__file__),
                 str(trace.fileno()), path],
                stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, pass_fds=(trace.fileno(),))
        if F_SETPIPE_SZ is not None:
            # over a limit the system sets, the default size stays
            with contextlib.suppress(OSError):
                fcntl(self.process.stdin, F_SETPIPE_SZ, PIPE_BYTES)

    def send(self, message) -> None:
        """Hand a message to the writer; it may change once this returns."""
        data = marshal.dumps(message)
        try:
            self.process.stdin.write(len(data).to_bytes(4, "little"))
            self.process.stdin.write(data)
        except BrokenPipeError:
            self._join()  # the writer has stopped reading: raise its error

    def _join(self) -> None:
        """Close the writer's input and wait for it; OSError if it failed."""
        _, err = self.process.communicate()
        if self.process.returncode:
            raise OSError((err.decode(errors="replace").splitlines() or [
                f"cannot write {self.path}: the trace writer failed: exit "
                f"status {self.process.returncode}"])[-1])

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self._join()
        finally:
            self._kill()  # nothing to do for a writer joined

    def _kill(self) -> None:
        """Kill and reap the writer."""
        proc = self.process
        proc.kill()
        with contextlib.suppress(BrokenPipeError):  # bytes left for the dead writer
            proc.stdin.close()
        proc.wait()
        proc.stderr.close()


def main(fd, path) -> int:
    """Send the messages arriving on stdin to a ``TraceFile`` on fd, open
    on path; 1 on any error, reported on stderr naming a file."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    read = sys.stdin.buffer.read
    try:
        with TraceFile(path, fd) as trace:
            while head := read(4):
                trace.send(marshal.loads(read(int.from_bytes(head, "little"))))
    except Exception as e:  # TraceFile's OSErrors name their file
        sys.stderr.write(f"{e if isinstance(e, OSError) else cannot_write(path, e)}\n")
        return 1
    return 0


if __name__ == "__main__":
    code = main(int(sys.argv[1]), sys.argv[2])
    sys.stderr.flush()
    # the run waits for this exit at its join: skip the interpreter's
    # teardown (about 5 ms), as nothing is left to release
    os._exit(code)
