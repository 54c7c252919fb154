"""Drive one `symcan serve --stdio` process over its pipes.

Every figure is taken from outside the server: latencies with the
client's clock, CPU time and peak RSS from /proc/<server pid>, cache and
shed counters from the `health` and `telemetry` replies, per-request
service and queue times from the flight-recorder dump written at
shutdown.
"""

import json
import os
import subprocess
import threading
import time

# Every run passes these explicitly, next to the workload's --jobs and
# --batch, so a change of the CLI defaults cannot change the benchmark.
SERVE_FLAGS = ["--serve-shards", "8", "--rta-cache-capacity", "65536", "--matrix-cache", "64",
               "--ring-capacity", "256", "--overflow", "reject", "--flight-capacity", "4096"]

CLK_TCK = os.sysconf("SC_CLK_TCK")


def spawn(symcan, jobs, batch, flight_path=None):
    args = [symcan, "serve", "--stdio", "--jobs", str(jobs), "--batch", str(batch)] + SERVE_FLAGS
    if flight_path:
        args += ["--flight-recorder", flight_path]
    return subprocess.Popen(args, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, bufsize=1 << 16)


def stop(proc):
    """Kill (if still running) and reap a server."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def cpu_seconds(pid):
    """utime + stime of the whole process (all threads), from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid):
    """The server's own high-water RSS (VmHWM). A child's ru_maxrss would
    start from the spawning client's high-water mark instead."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reply_status(resp):
    """The status of a reply line, e.g. b"ok"."""
    i = resp.index(b'"status":"') + 10
    return resp[i:resp.index(b'"', i)]


def is_answer(resp):
    """ok, or failed with exit 1 (a deadline-miss verdict), is an answer;
    invalid, shed and rejected are failed operations."""
    status = reply_status(resp)
    return status == b"ok" or (status == b"failed" and b'"status":"failed","exit_code":1,' in resp)


def setup_seconds(symcan, jobs, batch):
    """Spawn to first reply: one `health` request, then end of input (which
    also flushes a partial batch)."""
    t0 = time.perf_counter()
    proc = spawn(symcan, jobs, batch)
    try:
        proc.stdin.write(b'{"id":"setup","kind":"health"}\n')
        proc.stdin.close()
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.wait()
    finally:
        stop(proc)
    if b'"status":"ok"' not in line:
        raise RuntimeError("server did not answer the setup health request")
    return t1 - t0


class Session:
    """One server, driven as a closed loop with `window` requests in flight.

    window == 1 is a ping-pong on one thread. A larger window writes whole
    batches from a second thread while this one reads: a single thread
    that writes the next window while the server writes multi-KB replies
    blocks both pipes.
    """

    def __init__(self, symcan, jobs, batch, window, flight_path):
        self.batch = batch
        self.window = window
        self.flight_path = flight_path
        self.proc = spawn(symcan, jobs, batch, flight_path)
        self.pid = self.proc.pid
        self.sent = 0
        self.failures = 0

    def run(self, stream, on_response, count=None, seconds=None):
        """Send requests until `count` are answered or `seconds` have passed.
        on_response(k, req, line, latency_s) sees every reply. Returns the
        number of requests answered."""
        if self.window == 1:
            return self._ping_pong(stream, on_response, count, seconds)
        return self._windowed(stream, on_response, count, seconds)

    def _check(self, k, line):
        if not line:
            raise RuntimeError("server closed its output")
        if not line.startswith(b'{"id":"%d"' % k):
            raise RuntimeError(f"reply out of order: expected id {k}")
        if not is_answer(line):
            self.failures += 1

    def _ping_pong(self, stream, on_response, count, seconds):
        w, r = self.proc.stdin, self.proc.stdout
        clock = time.perf_counter
        deadline = clock() + seconds if seconds else None
        done = 0
        while (count is None or done < count) and (deadline is None or clock() < deadline):
            req, line = stream.next()
            k = self.sent
            t0 = clock()
            w.write(line)
            w.flush()
            resp = r.readline()
            t1 = clock()
            self.sent += 1
            self._check(k, resp)
            on_response(k, req, resp, t1 - t0)
            done += 1
        return done

    def _windowed(self, stream, on_response, count, seconds):
        w, r = self.proc.stdin, self.proc.stdout
        clock = time.perf_counter
        batches = threading.Semaphore(self.window // self.batch)
        cond = threading.Condition()
        state = {"written": self.sent, "stop": False, "done": False, "error": None}
        inflight = {}  # k -> (req, write time)
        first = self.sent

        def writer():
            try:
                while True:
                    batches.acquire()
                    with cond:
                        if state["stop"]:
                            break
                        base = state["written"]
                    reqs = [stream.next() for _ in range(self.batch)]
                    blob = b"".join(line for _, line in reqs)
                    t = clock()
                    with cond:
                        for i, (req, _) in enumerate(reqs):
                            inflight[base + i] = (req, t)
                    w.write(blob)
                    w.flush()
                    with cond:
                        state["written"] = base + self.batch
                        cond.notify()
            except Exception as e:  # surfaced by the reader below
                state["error"] = e
            finally:
                with cond:
                    state["done"] = True
                    cond.notify()

        thread = threading.Thread(target=writer, daemon=True)
        deadline = clock() + seconds if seconds else None
        k = first
        thread.start()
        try:
            while True:
                with cond:
                    while k >= state["written"] and not state["done"]:
                        cond.wait()
                    if k >= state["written"]:
                        break
                    req, t0 = inflight.pop(k)
                resp = r.readline()
                t1 = clock()
                self._check(k, resp)
                on_response(k, req, resp, t1 - t0)
                k += 1
                if (k - first) % self.batch == 0:
                    # The batches still in flight are read after a stop.
                    if (count is not None and k - first + self.window - self.batch >= count) or (
                            deadline is not None and t1 >= deadline):
                        with cond:
                            state["stop"] = True
                    batches.release()
        finally:
            with cond:
                state["stop"] = True
            batches.release()
            thread.join(timeout=30)
        if state["error"]:
            raise state["error"]
        if thread.is_alive():
            raise RuntimeError("request writer did not stop")
        self.sent = k
        return k - first

    def finish(self):
        """Send health and telemetry, close stdin, reap the server. Returns
        (health, telemetry, flight records)."""
        w, r = self.proc.stdin, self.proc.stdout
        w.write(b'{"id":"end-health","kind":"health"}\n{"id":"end-telemetry","kind":"telemetry"}\n')
        w.close()
        replies = {}
        for line in r:
            obj = json.loads(line)
            replies[obj["id"]] = obj
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        with open(self.flight_path) as f:
            lines = f.read().splitlines()
        if not lines or json.loads(lines[0]).get("reason") != "shutdown":
            raise RuntimeError("flight recorder was not dumped at shutdown")
        flight = [json.loads(line) for line in lines[1:]]
        return replies["end-health"]["health"], replies["end-telemetry"]["telemetry"], flight

    def close(self):
        stop(self.proc)
