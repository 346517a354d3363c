"""Process control, spans and statistics shared by the benchmark driver."""

import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import threading
import time

# Address-space cap for every program process: a runaway (the class-skip
# defect grows a sample to gigabytes) fails fast instead of starving the
# host.
PROGRAM_ADDRESS_SPACE = 6 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (PROGRAM_ADDRESS_SPACE, PROGRAM_ADDRESS_SPACE))


class PeakRss:
    """Follows a running process's own peak resident set (VmHWM).

    wait4's ru_maxrss cannot be used: a child forked from this
    interpreter starts with the interpreter's peak as its own, which
    hides any program smaller than the driver. VmHWM belongs to the
    program's own address space; it is polled until the process exits.
    Readings taken before the exec (the process still runs as a copy of
    this interpreter) are skipped by name.
    """

    INTERVAL_S = 0.005

    def __init__(self, pid, program):
        self.pid = pid
        self.name = os.path.basename(program)[:15]   # the kernel's comm
        self.kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _read(self):
        try:
            with open(f"/proc/{self.pid}/status") as status:
                for line in status:
                    if line.startswith("Name:") and line.split()[1:] != [
                            self.name]:
                        return
                    if line.startswith("VmHWM:"):
                        self.kb = max(self.kb, int(line.split()[1]))
        except OSError:
            pass

    def _poll(self):
        while not self._stop.is_set():
            self._read()
            self._stop.wait(self.INTERVAL_S)

    def stop(self):
        """Call once the process has exited but is not yet reaped (its pid
        cannot be reused); returns the peak in KiB."""
        self._stop.set()
        self._thread.join()
        return self.kb


class Result:
    """How one program process ended."""

    def __init__(self, seconds, returncode, timed_out, maxrss_kb, output):
        self.seconds = seconds
        self.returncode = returncode
        self.timed_out = timed_out
        self.maxrss_kb = maxrss_kb
        self.output = output

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out


def spawn(argv, stdout=subprocess.DEVNULL):
    return subprocess.Popen(argv, stdout=stdout, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL,
                            preexec_fn=_limit_memory)


def reap(proc, timeout=None, rss=None):
    """Waits for `proc` (SIGKILL after `timeout` s) and stops its PeakRss
    `rss` before reaping it; returns timed_out."""
    timer = None
    killed = threading.Event()
    if timeout is not None:
        def kill():
            killed.set()
            with contextlib.suppress(ProcessLookupError):
                os.kill(proc.pid, signal.SIGKILL)
        timer = threading.Timer(timeout, kill)
        timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        if rss is not None:
            rss.stop()
        _, status = os.waitpid(proc.pid, 0)
    finally:
        if timer is not None:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return killed.is_set()


def run(argv, limit_s, capture=False, track_rss=False):
    """Runs a program to completion under a wall-time limit. Captured
    output is read after exit: the probe prints one short JSON line,
    which the pipe buffer holds. With track_rss, Result.maxrss_kb is the
    program's own peak resident set."""
    start = time.perf_counter()
    proc = spawn(argv, stdout=subprocess.PIPE if capture else
                 subprocess.DEVNULL)
    rss = PeakRss(proc.pid, argv[0]) if track_rss else None
    timed_out = reap(proc, limit_s, rss)
    seconds = time.perf_counter() - start
    output = ""
    if capture:
        output = proc.stdout.read().decode(errors="replace")
        proc.stdout.close()
    return Result(seconds, proc.returncode, timed_out,
                  rss.kb if rss else None, output)


def last_json_line(text):
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON line in output")


# ---------------------------------------------------------------- spans

class Tracer:
    """Spans recorded by the driver around calls into the program.

    Kept in memory and written once, as Chrome trace-event JSON, when the
    run ends. When disabled, span() costs one branch.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.origin = time.perf_counter()
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, op="", tid=0):
        if not self.enabled:
            yield
            return
        with self._lock:
            span_id = self._next
            self._next += 1
        parent = getattr(self._local, "current", -1)
        self._local.current = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.current = parent
            with self._lock:
                self.spans.append({"name": name, "start": start, "end": end,
                                   "id": span_id, "parent": parent,
                                   "op": op, "tid": tid})

    def chrome_events(self):
        return [{"name": s["name"], "ph": "X",
                 "ts": (s["start"] - self.origin) * 1e6,
                 "dur": (s["end"] - s["start"]) * 1e6,
                 "pid": 1, "tid": s["tid"],
                 "args": {"span_id": s["id"], "parent": s["parent"],
                          "op": s["op"]}}
                for s in self.spans]


# ----------------------------------------------------------- statistics

TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 70, 60, 50)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it (the median when there are too few samples)."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q, percentile(values, q)
    return 50, percentile(values, 50)


def median(values):
    return statistics.median(values) if values else 0.0
