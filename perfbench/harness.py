"""Processes, sockets and statistics for the benchmark harness."""
import math
import os
import signal
import socket
import subprocess
import threading
import time

NPROC = len(os.sched_getaffinity(0))


class ProgramError(Exception):
    pass


class Child:
    """A program process whose peak RSS is read from wait4 when it ends."""

    def __init__(self, args, workdir, name, stdin=False):
        self.name = name
        self.out_path = os.path.join(workdir, f"{name}.out")
        self.err_path = os.path.join(workdir, f"{name}.err")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                args, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=out, stderr=err)
        self.rss_kb = 0
        self.code = None
        _live.add(self)

    def wait(self, timeout):
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.code = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        _live.discard(self)
        return self.code

    def stop(self, timeout=60):
        """Graceful drain: SIGTERM, then wait for exit."""
        if self.code is None:
            self.proc.send_signal(signal.SIGTERM)
            self.wait(timeout)
        if self.code != 0:
            raise ProgramError(f"{self.name} exited {self.code}: {self.stderr()}")

    def stdout(self):
        with open(self.out_path, encoding="utf-8") as f:
            return f.read()

    def stderr(self):
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            return f.read()[-2000:]


_live = set()


def kill_all():
    """Stops every process still running (error paths) and reaps it."""
    for child in list(_live):
        child.proc.kill()
        child.wait(30)


def run(args, workdir, name, stdin_text=None, timeout=170):
    """Runs a program to completion. Returns (stdout, wall seconds, peak
    RSS in KB)."""
    start = time.perf_counter()
    child = Child(args, workdir, name, stdin=stdin_text is not None)
    if stdin_text is not None:
        child.proc.stdin.write(stdin_text.encode())
        child.proc.stdin.close()
    code = child.wait(timeout)
    wall = time.perf_counter() - start
    if code != 0:
        raise ProgramError(f"{name} exited {code}: {child.stderr()}")
    return child.stdout(), wall, child.rss_kb


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class LineClient:
    """One closed-loop connection speaking the newline-framed protocol."""

    def __init__(self, port, timeout=60):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        resp = self.reader.readline()
        if not resp.endswith(b"\n"):
            raise ProgramError("connection closed mid-response")
        return resp[:-1].decode()

    def close(self):
        self.reader.close()
        self.sock.close()


PING = '{"id":"ping","method":"ping"}'


def wait_for_ping(port, deadline_s=60):
    end = time.perf_counter() + deadline_s
    while True:
        try:
            c = LineClient(port, timeout=5)
            try:
                if '"pong":true' in c.request(PING):
                    return
            finally:
                c.close()
        except OSError:
            pass
        if time.perf_counter() > end:
            raise ProgramError(f"no ping answer on port {port}")
        time.sleep(0.002)


def median(xs):
    # Not statistics.median: importing statistics costs ~5 ms of set-up.
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
