"""The served workload: ``repro serve`` driven from outside over TCP.

The server runs as its own process in its default configuration (the
demo deployment, decision cache on, request tracing sampled 1 in 64)
with a durable write-through trail.  One client connection sends either
a *pipelined* pass (a fixed window of frames in flight) or a
*sequential* pass (one frame in flight).  Every response is checked
against :mod:`oracles` after its pass, and after shutdown the reopened
trail must hold exactly the expected entries, request by request.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import oracles

_clock = time.perf_counter

#: frames in flight during a pipelined pass
WINDOW = 16
#: the user of the fixed, seed-independent predicate-column probe
#: (see :func:`_probe`); no other request uses this name
PROBE_USER = "probe-clerk"

#: failure causes, in reporting order
CAUSES = ("wrong_answer", "overloaded", "timeout", "transport", "other")


class Failures:
    """Failed operations split by cause."""

    def __init__(self) -> None:
        self.by_cause = dict.fromkeys(CAUSES, 0)

    def add(self, cause: str, amount: int = 1) -> None:
        self.by_cause[cause] += amount

    @property
    def total(self) -> int:
        return sum(self.by_cause.values())


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process with a client connection to it."""

    def __init__(self, root: Path, workdir: Path, label: str, cpu=None,
                 trace_out: Path | None = None) -> None:
        self.store_dir = workdir / f"trail-{label}"
        serve_args = ["serve", "--port", "0", "--store-dir", str(self.store_dir)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                       str(trace_out), *serve_args]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr_path = workdir / f"server-{label}.err"
        self._stderr = open(self.stderr_path, "wb")
        preexec = None
        if cpu is not None:
            def preexec():
                os.sched_setaffinity(0, {cpu})
        self.sock = None
        #: every request sent, in order, and per probe whether it disclosed
        self.sent: list = []
        self.probes: list[bool] = []
        began = _clock()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, preexec_fn=preexec,
        )
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if "listening on" not in line:
                raise RuntimeError(f"server did not come up: {line!r}; {self.stderr_tail()}")
            host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
            self.address = (host, int(port))
            self.sock = socket.create_connection(self.address, timeout=30)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.rfile = self.sock.makefile("rb")
            pong = self.call(b'{"op":"ping"}\n')
            if not json.loads(pong).get("ok"):
                raise RuntimeError(f"ping failed: {pong!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = _clock() - began

    def stderr_tail(self) -> str:
        try:
            return self.stderr_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def call(self, frame: bytes) -> bytes:
        self.sock.sendall(frame)
        return self.rfile.readline()

    def pipelined(self, frames: list[bytes]) -> tuple[float, list[bytes]]:
        """Send ``frames`` with :data:`WINDOW` in flight; (seconds, lines)."""
        sendall, readline = self.sock.sendall, self.rfile.readline
        lines = []
        total = len(frames)
        began = _clock()
        sendall(b"".join(frames[:WINDOW]))
        sent = min(WINDOW, total)
        while len(lines) < total:
            lines.append(readline())
            if sent < total:
                sendall(frames[sent])
                sent += 1
        return _clock() - began, lines

    def sequential(self, frames: list[bytes]) -> tuple[list[float], list[bytes]]:
        """One frame in flight; (round-trip seconds, lines)."""
        sendall, readline = self.sock.sendall, self.rfile.readline
        lines, rtts = [], []
        for frame in frames:
            began = _clock()
            sendall(frame)
            lines.append(readline())
            rtts.append(_clock() - began)
        return rtts, lines

    def scrape_metrics(self) -> str:
        """``GET /metrics`` on a fresh connection (Prometheus text)."""
        with socket.create_connection(self.address, timeout=30) as conn:
            conn.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            chunks = []
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks).split(b"\r\n\r\n", 1)[1].decode("utf-8")

    def peak_rss_mib(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int | None:
        """Drain-then-stop via SIGTERM; always reaps the process."""
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None
        code = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        else:
            code = self.proc.returncode
        self.proc.stdout.close()
        self._stderr.close()
        return code


# ----------------------------------------------------------------------
# request streams (each request: frame, expected response, entries)
# ----------------------------------------------------------------------


class Request:
    __slots__ = ("frame", "expect", "entries", "context", "probe")

    def __init__(self, frame, expect, entries, context, probe=False) -> None:
        self.frame = frame
        #: response fields the answer must carry
        self.expect = expect
        #: the audit entries it must write, as (user, data, op, status)
        self.entries = entries
        #: (role, purpose)
        self.context = context
        self.probe = probe


def _frame(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def _demo_oracle():
    from repro.experiments.harness import DEMO_RULES
    from repro.vocab.builtin import healthcare_vocabulary

    return oracles.DecisionOracle(DEMO_RULES, healthcare_vocabulary())


#: (role, purpose) pairs of the demo ward's workflow
_CONTEXTS = (
    ("nurse", "treatment"), ("physician", "treatment"),
    ("physician", "diagnosis"), ("clerk", "billing"),
    ("registrar", "registration"),
)
#: query kinds of one round, in round order before shuffling
_ROUND_KINDS = (
    ("point",) * 6 + ("range",) * 4 + ("masked",) * 4 + ("denied",) * 3
    + ("exception",) * 2
)


def query_stream(seed: int, rounds: int = 50) -> list[Request]:
    """``rounds`` rounds of 20 enforced SQL requests.

    Each round holds 6 point lookups, 4 range scans, 4 projections with
    masked columns, 3 queries on wholly denied columns and 2
    break-the-glass queries on denied columns (in a seeded order), plus
    one predicate-column probe -- the same probe in every round and every
    run.  The break-the-glass queries give the served trail exceptions
    for refinement to mine.
    """
    from repro.experiments.harness import PATIENT_COLUMNS

    oracle = _demo_oracle()
    columns = list(PATIENT_COLUMNS)
    table = oracles.demo_table(columns, rows=200, seed=7)
    rng = random.Random(seed)
    stream = []

    def permitted(column, role, purpose):
        return oracle.permits(PATIENT_COLUMNS[column], purpose, role)

    for _ in range(rounds):
        kinds = list(_ROUND_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            while True:
                role, purpose = rng.choice(_CONTEXTS)
                allowed = [c for c in columns if permitted(c, role, purpose)]
                denied = [c for c in columns if c not in allowed]
                if kind in ("denied", "exception") and denied:
                    picked = rng.sample(denied, min(len(denied), rng.randint(1, 2)))
                elif kind == "masked" and allowed and denied:
                    picked = rng.sample(allowed, 1) + rng.sample(denied, 1)
                    rng.shuffle(picked)
                elif kind in ("point", "range") and allowed:
                    picked = rng.sample(allowed, min(len(allowed), rng.randint(1, 3)))
                else:
                    continue
                break
            if rng.random() < 0.3:
                picked = ["pid"] + picked
            if kind == "range" or (kind == "masked" and rng.random() < 0.5):
                low = rng.randrange(180)
                high = low + rng.randint(5, 20)
                where = f"pid >= 'p{low:06d}' AND pid < 'p{high:06d}'"
                rows = [r for r in table if f"p{low:06d}" <= r["pid"] < f"p{high:06d}"]
                suffix = " ORDER BY pid"
            else:
                pid = f"p{rng.randrange(200):06d}"
                where = f"pid = '{pid}'"
                rows = [r for r in table if r["pid"] == pid]
                suffix = ""
            sql = f"SELECT {', '.join(picked)} FROM patients WHERE {where}{suffix}"
            user = f"user{rng.randrange(23)}"
            categories = [PATIENT_COLUMNS[c] for c in picked if c != "pid"]
            exception = kind == "exception"
            returned, masked = oracle.split(categories, purpose, role, exception)
            if returned:
                expect = {
                    "code": "OK", "returned": list(returned), "masked": list(masked),
                    "status": "exception" if exception else "regular",
                    "columns": picked,
                    "rows": [
                        [r[c] if c == "pid" or PATIENT_COLUMNS[c] in returned else None
                         for c in picked]
                        for r in rows
                    ],
                }
            else:
                expect = {"code": "DENIED"}
            entries = oracles.expected_entries(user, returned, masked, exception)
            payload = {"op": "query", "user": user, "role": role,
                       "purpose": purpose, "sql": sql}
            if exception:
                payload["exception"] = True
            stream.append(Request(_frame(payload), expect, entries, (role, purpose)))
        stream.append(_probe(table))
    return stream


def _probe(table) -> Request:
    """A billing clerk selects ``name`` through the denied ``psychiatry``.

    Correct enforcement must not disclose the row (refuse the query or
    drop the row) and must audit the ``psychiatry`` read.
    """
    value = table[5]["psychiatry"]
    sql = f"SELECT name FROM patients WHERE psychiatry = '{value}'"
    return Request(
        _frame({"op": "query", "user": PROBE_USER, "role": "clerk",
                "purpose": "billing", "sql": sql}),
        None, None, ("clerk", "billing"), probe=True,
    )


def trail_entries(stream, count: int) -> list:
    """The first ``count`` entries the served trail holds, probes left out.

    Requests are served in stream order from its start, and
    :func:`check_trail` proves the served trail equals these entries,
    so the refinement half of a served run can ingest them without
    waiting for the server to stop.  Each ALLOW or DENY group of one
    request gets its own tick, as the auditor does.
    """
    from repro.audit.entry import AuditEntry

    entries = []
    tick = 0
    index = 0
    while len(entries) < count:
        request = stream[index % len(stream)]
        index += 1
        if request.probe:
            continue
        role, purpose = request.context
        group = None
        for user, data, op, status in request.entries:
            if op != group:
                tick += 1
                group = op
            entries.append(AuditEntry(time=tick, op=op, user=user, data=data,
                                      purpose=purpose, authorized=role, status=status))
    return entries[:count]


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


def check_responses(requests, lines, failures: Failures, probes: list) -> None:
    """Judge each response line; probes are judged in :func:`check_trail`.

    ``probes`` collects, per probe, whether its response disclosed rows.
    """
    for request, line in zip(requests, lines):
        if not line:
            failures.add("transport")
            continue
        try:
            response = json.loads(line)
        except ValueError:
            failures.add("other")
            continue
        code = response.get("code")
        if request.probe:
            probes.append(code == "OK" and bool(response.get("rows")))
            continue
        if code == "OVERLOADED":
            failures.add("overloaded")
        elif code == "TIMEOUT":
            failures.add("timeout")
        elif any(response.get(key) != value for key, value in request.expect.items()):
            failures.add("wrong_answer")


def check_trail(store_dir: Path, requests, probes: list, failures: Failures) -> int:
    """Reopen the trail; every request must have written its entries.

    Returns the number of probes that failed (disclosed a row selected
    through the denied column, or left that column's read unaudited).
    """
    from repro.store.durable import DurableAuditLog

    log = DurableAuditLog(store_dir, create=False)
    try:
        trail = [
            (e.user, e.data, int(e.op), int(e.status)) for e in log
        ]
    finally:
        log.close()
    position = 0
    probe_index = 0
    failed_probes = 0
    for request in requests:
        if request.probe:
            audited = []
            while position < len(trail) and trail[position][0] == PROBE_USER:
                audited.append(trail[position][1])
                position += 1
            if probes[probe_index] or "psychiatry" not in audited:
                failed_probes += 1
            probe_index += 1
            continue
        count = len(request.entries)
        if trail[position:position + count] != request.entries:
            failures.add("wrong_answer")
        position += count
    if position != len(trail):
        failures.add("other")
    return failed_probes


def trail_bytes(store_dir: Path) -> int:
    return sum(path.stat().st_size for path in store_dir.glob("*.seg"))
