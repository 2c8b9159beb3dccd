#!/usr/bin/env python3
"""One benchmark for the PRIMA loop: serve, audit, refine.

Run one workload::

    python3 perfbench/run.py --workload serve-query --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it (``record: {...}``) carries reference figures that are not
gated: pass counts, tail percentiles and failures by cause.

Check the bounds in ``BENCHMARK.json`` on this host::

    python3 perfbench/run.py --steadiness 5 --workload serve-query

See ``perfbench/README.md`` for the workloads, statistics and layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

_clock = time.perf_counter

#: share of a served run's measuring time spent serving (the rest
#: refines the served trail)
SERVE_SHARE = 0.5
#: pass pairs (one pipelined, one sequential) served per second of that
#: share, measured on the reference host; the count is fixed per
#: --seconds, never by elapsed time
PAIRS_PER_SECOND = 3.8
MIN_PAIRS = 24
#: serving blocks; a trail round runs before, between and after them
SERVE_BLOCKS = 7
#: served-trail entries the refinement half of a served run ingests
SERVED_PREFIX = 10_000
#: timed refines per trail round of a served run
SERVED_REFINES = 1
#: set-ups per run; setup_s is their median
SETUPS = {"serve-query": 5, "refine-trail": 3}
#: requests per pipelined and per sequential pass, whole rounds of 20
PIPELINED_PASS = 200
SEQUENTIAL_PASS = 60
#: the E23 corpus scale: >= 200 rules, >= 50k audit entries
CORPUS = dict(departments=6, staff_per_role=3, patients=300, rounds=5,
              accesses_per_round=10_000, protocol_rules=60)
#: measuring seconds one refine-trail round takes on the reference host
#: (rounds per run are fixed by --seconds, never by elapsed time)
REFINE_TRAIL_ROUND_SECONDS = 15
#: timed refines per refine-trail round
CORPUS_REFINES = 3
#: users looked up in the trail, each LOOKUP_REPEATS times per
#: refine-trail round, timed in passes of LOOKUP_PASS
LOOKUPS = 60
LOOKUP_REPEATS = 2
LOOKUP_PASS = 10
#: segments the corpus trail is ingested in
CORPUS_SEGMENTS = 10
#: append passes after every timed refine-trail pass
APPENDS_BETWEEN = 2

E2E_UNITS = {
    "setup_s": "s", "rss_mb": "MiB", "trail_bytes_per_entry": "B",
    "rps": "req/s", "p50_ms": "ms", "refine_s": "s", "online_refine_s": "s",
    "append_eps": "entries/s", "scan_eps": "entries/s",
}
LAYER_UNITS = {
    "serve.codec_us": "us", "serve.engine_us": "us", "serve.overhead_us": "us",
    "hdb.enforce_us": "us", "hdb.permit_us": "us", "hdb.audit_us": "us",
    "hdb.audit_entries_per_request": "count",
    "sqlmini.execute_us": "us", "sqlmini.mine_s": "s",
    "sqlmini.rows_scanned_per_query": "count",
    "audit.entry_build_us": "us",
    "store.append_us": "us", "store.encode_us": "us", "store.decode_us": "us",
    "store.read_us": "us", "store.seal_s": "s", "store.fsyncs_per_1k_entries": "count",
    "refinement.coverage_s": "s", "refinement.filter_s": "s",
    "refinement.extract_s": "s", "refinement.prune_s": "s",
    "refinement.entries_decoded_per_refine": "count",
    "policy.ground_s": "s", "parallel.map_s": "s", "parallel.finalize_s": "s",
    "refine_daemon.poll_s": "s", "coverage.incremental_s": "s",
    "trace.overhead_pct": "%",
}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def upper_quartile(values) -> float:
    """The upper quartile, interpolated (a single value is its own)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def lower_quartile(values) -> float:
    """The lower quartile, interpolated (a single value is its own)."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _cpus():
    """(client cpu, server cpu) when two CPUs are available, else Nones."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def _demo_policy():
    from repro.experiments.harness import DEMO_RULES
    from repro.policy.parser import parse_rule
    from repro.policy.store import PolicyStore

    store = PolicyStore()
    for line in DEMO_RULES:
        store.add(parse_rule(line))
    return store


def _trail_record(rounds, appender) -> dict:
    """Every timed trail pass, rounded, for the run's record."""
    record = {
        field: [[round(t, 5) for t in getattr(r, field)] for r in rounds]
        for field in ("poll_s", "refine_s", "scan_s")
    }
    record["append_s"] = [round(t, 6) for t in appender.append_s]
    slices = sorted(t for r in rounds for t in r.scan_slice_s)
    record["scan_slice_s"] = {
        "count": len(slices), "min": round(slices[0], 6),
        "p10": round(percentile(slices, 0.1), 6), "median": round(percentile(slices, 0.5), 6),
    }
    return record


def _trail_metrics(rounds, appender) -> dict:
    """The trail half's figures (see the README for the statistics).

    Append passes and scan slices take milliseconds, so the fastest is
    taken; refines and whole ingests take up to seconds, so the upper
    quartile.
    """
    import trail

    return {
        "refine_s": upper_quartile(t for r in rounds for t in r.refine_s),
        "online_refine_s": upper_quartile(sum(r.poll_s) for r in rounds),
        "append_eps": trail.APPEND_SEGMENT / min(appender.append_s),
        "scan_eps": trail.SCAN_SLICE / min(t for r in rounds for t in r.scan_slice_s),
    }


def _freeze_heap() -> None:
    """Move the benchmark's own long-lived inputs out of the collector's
    reach, so collections inside timed passes scan only the program's
    allocations."""
    gc.collect()
    gc.freeze()


class Outcome:
    """What one run reports."""

    def __init__(self) -> None:
        self.correct = True
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.record: dict = {}

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------


def run_served(args, workdir: Path, out: Outcome) -> None:
    """The served workload: ``repro serve`` plus the loop over its trail.

    Serving passes come in blocks with a trail round before, between and
    after them, so every metric samples the whole run.
    """
    import served
    import spans
    import trail
    from repro.mining.patterns import MiningConfig
    from repro.vocab.builtin import healthcare_vocabulary

    stream = served.query_stream(args.seed)
    pairs = max(MIN_PAIRS, round(PAIRS_PER_SECOND * SERVE_SHARE * args.seconds))
    client_cpu, server_cpu = _cpus()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    inp = trail.TrailInput(
        entries=served.trail_entries(stream, SERVED_PREFIX), policy_store=_demo_policy(),
        vocabulary=healthcare_vocabulary(), segment_entries=SERVED_PREFIX // 10,
        refines=SERVED_REFINES,
    )
    oracle = trail.TrailOracle(inp, MiningConfig())
    failures = served.Failures()
    cursor = 0
    rates, medians, rtts_all, traced_medians, traced_rtts = [], [], [], [], []
    rounds = []
    recorder = spans.SpanRecorder() if args.trace else None

    def take(server, count):
        nonlocal cursor
        batch = [stream[(cursor + i) % len(stream)] for i in range(count)]
        cursor += count
        server.sent.extend(batch)
        return batch

    def pipelined(server):
        batch = take(server, PIPELINED_PASS)
        seconds, lines = server.pipelined([r.frame for r in batch])
        served.check_responses(batch, lines, failures, server.probes)
        return len(batch) / seconds

    def sequential(server):
        batch = take(server, SEQUENTIAL_PASS)
        rtts, lines = server.sequential([r.frame for r in batch])
        served.check_responses(batch, lines, failures, server.probes)
        return rtts

    def trail_round():
        if recorder is None:
            rounds.append(trail.run_round(inp, oracle, workdir, between=appender.step))
            return
        spans.install_refinement(recorder)
        try:
            rounds.append(trail.run_round(inp, oracle, workdir, recorder))
        finally:
            recorder.uninstall()

    servers = []
    appender = trail.Appender(inp.entries, workdir)
    try:
        # ---- set-up: launch until the first answered ping
        setups = []
        count = 1 if args.trace else SETUPS["serve-query"]
        for index in range(count):
            server = served.ServerProcess(ROOT, workdir, f"setup{index}", cpu=server_cpu)
            setups.append(server.setup_s)
            if index < count - 1:
                server.stop()
                shutil.rmtree(server.store_dir, ignore_errors=True)
        main = server
        servers.append(main)
        traced = None
        if args.trace:
            traced = served.ServerProcess(ROOT, workdir, "traced", cpu=server_cpu,
                                          trace_out=workdir / "server-spans.json")
            servers.append(traced)
        _freeze_heap()

        # warm-up: caches, lazily built plans, the first segment file
        for server in servers:
            pipelined(server)
            sequential(server)
        for _ in range(SERVE_BLOCKS):
            trail_round()
            for _ in range(pairs // SERVE_BLOCKS):
                if traced is None:
                    rates.append(pipelined(main))
                    rtts = sequential(main)
                    medians.append(statistics.median(rtts))
                    rtts_all.extend(rtts)
                    appender.step()
                else:
                    # sequential passes alternate between the two servers,
                    # so host noise hits both sides of the overhead ratio
                    pipelined(traced)
                    medians.append(statistics.median(sequential(main)))
                    rtts = sequential(traced)
                    traced_medians.append(statistics.median(rtts))
                    traced_rtts.extend(rtts)
        trail_round()

        rss = main.peak_rss_mib()
        metrics_text = traced.scrape_metrics() if traced is not None else ""
        for server in servers:
            code = server.stop()
            if code != 0:
                failures.add("other")
                out.fail(f"server exited with {code}: {server.stderr_tail()}")
        failed_probes = sum(
            served.check_trail(server.store_dir, server.sent, server.probes, failures)
            for server in servers
        )
        trail_entries = sum(
            len(r.entries) if r.entries is not None else 1 for r in main.sent
        )
        trail_bytes = served.trail_bytes(main.store_dir)
    finally:
        appender.close()
        for server in servers:
            server.stop()

    unexpected = failures.total
    failures.add("wrong_answer", failed_probes)
    out.attempted = sum(len(server.sent) for server in servers)
    out.failed = failed_probes + sum(
        failures.by_cause[c] for c in ("overloaded", "timeout", "transport")
    )
    if failures.by_cause["wrong_answer"] > failed_probes or failures.by_cause["other"]:
        out.fail(f"failures by cause: {failures.by_cause} ({failed_probes} probes)")
    out.record.update(
        failures=failures.by_cause, failed_probes=failed_probes,
        unexpected_failures=unexpected, passes=len(medians), trail_rounds=len(rounds),
        setups=[round(s, 4) for s in setups],
        pinned={"client": client_cpu, "server": server_cpu},
    )
    if args.trace:
        server_rec = spans.SpanRecorder.load(
            json.loads((workdir / "server-spans.json").read_text())
        )
        overhead = (statistics.median(traced_medians) / statistics.median(medians) - 1) * 100
        out.metrics = layer_metrics(
            server_rec, recorder, rounds,
            mean_rtt_us=statistics.fmean(traced_rtts) * 1e6,
            rows_scanned=_prom_value(metrics_text, "repro_sqlmini_rows_scanned_total"),
            overhead_pct=overhead,
        )
        return
    out.metrics = {
        "setup_s": statistics.median(setups),
        "rss_mb": rss,
        "trail_bytes_per_entry": trail_bytes / trail_entries,
        "rps": lower_quartile(rates),
        "p50_ms": upper_quartile(medians) * 1000,
        **_trail_metrics(rounds, appender),
    }
    rtts_ms = sorted(r * 1000 for r in rtts_all)
    out.record.update(
        rps_passes=[round(r, 1) for r in rates],
        p50_ms_passes=[round(m * 1000, 4) for m in medians],
        rtt_samples=len(rtts_ms),
        rtt_p99_ms=round(percentile(rtts_ms, 0.99), 4),
        rtt_p999_ms=round(percentile(rtts_ms, 0.999), 4),
        trail_passes=_trail_record(rounds, appender),
    )


# ----------------------------------------------------------------------
# refine-trail
# ----------------------------------------------------------------------


def _corpus_input(seed: int):
    """Generate the corpus and its trace; returns (trail input, corpus)."""
    import trail
    from repro.corpus import CorpusSpec, generate_corpus, simulate_corpus_trace

    spec = CorpusSpec(seed=seed, name="perfbench", **CORPUS)
    corpus = generate_corpus(spec)
    trace = simulate_corpus_trace(corpus)
    entries = list(trace.log)
    activity = Counter(entry.user for entry in entries)
    ranked = sorted(activity, key=lambda user: (activity[user], user))
    picked = [ranked[i * (len(ranked) - 1) // (LOOKUPS - 1)] for i in range(LOOKUPS)]
    # each pass of LOOKUP_PASS lookups is a stratified sample from the
    # least to the most active user, so passes cost alike on every seed
    stride = LOOKUPS // LOOKUP_PASS
    users = [user for start in range(stride) for user in picked[start::stride]]
    return trail.TrailInput(
        entries=entries, policy_store=corpus.store, vocabulary=corpus.vocabulary,
        segment_entries=len(entries) // CORPUS_SEGMENTS, lookup_users=users * LOOKUP_REPEATS,
        refines=CORPUS_REFINES,
    ), corpus


def run_refine_trail(args, workdir: Path, out: Outcome) -> None:
    """The corpus trail: set-ups and rounds alternate over the run."""
    import spans
    import trail
    from repro.mining.patterns import MiningConfig
    from repro.store.durable import DurableAuditLog

    client_cpu, _ = _cpus()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    setups = []

    def set_up():
        directory = workdir / f"setup-{len(setups)}"
        began = _clock()
        made = _corpus_input(args.seed)
        opened = DurableAuditLog(directory)
        setups.append(_clock() - began)
        opened.close()
        shutil.rmtree(directory)
        return made

    inp, corpus = set_up()
    if len(corpus.rules) < 200 or len(inp.entries) < 50_000:
        out.fail(f"corpus below E23 scale: {len(corpus.rules)} rules, {len(inp.entries)} entries")
    oracle = trail.TrailOracle(inp, MiningConfig())
    appender = trail.Appender(inp.entries, workdir)
    _freeze_heap()

    def between():
        for _ in range(APPENDS_BETWEEN):
            appender.step()

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        plain = [trail.run_round(inp, oracle, workdir)]
        spans.install_refinement(recorder)
        try:
            traced = [trail.run_round(inp, oracle, workdir, recorder)]
        finally:
            recorder.uninstall()
        overhead = (
            min(t for r in traced for t in r.refine_s)
            / min(t for r in plain for t in r.refine_s) - 1
        ) * 100
        out.metrics = layer_metrics(None, recorder, traced, overhead_pct=overhead)
        rounds = plain + traced
    else:
        count = max(2, round(args.seconds / REFINE_TRAIL_ROUND_SECONDS))
        rounds = []
        try:
            for _ in range(count):
                rounds.append(trail.run_round(inp, oracle, workdir, between=between))
                if len(setups) < SETUPS["refine-trail"]:
                    set_up()
        finally:
            appender.close()
        latencies = [t for r in rounds for t in r.lookup_s]
        batches = [latencies[i:i + LOOKUP_PASS] for i in range(0, len(latencies), LOOKUP_PASS)]
        out.metrics = {
            "setup_s": statistics.median(setups),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "trail_bytes_per_entry": rounds[-1].trail_bytes / len(inp.entries),
            "rps": lower_quartile(len(b) / sum(b) for b in batches),
            "p50_ms": upper_quartile(statistics.median(b) for b in batches) * 1000,
            **_trail_metrics(rounds, appender),
        }
        out.record.update(
            lookup_samples=len(latencies),
            lookup_pass_ms=[round(sum(b) * 1000, 3) for b in batches],
            lookup_pass_p50_ms=[round(statistics.median(b) * 1000, 4) for b in batches],
            lookup_p99_ms=round(percentile([t * 1000 for t in latencies], 0.99), 4),
            trail_passes=_trail_record(rounds, appender),
        )
    # one operation per append pass, daemon poll, refine, scan and lookup
    out.attempted = len(appender.append_s) + sum(
        len(r.poll_s) + len(r.refine_s) + len(r.scan_s) + len(r.lookup_s) for r in rounds
    )
    out.failed = 0
    out.record.update(
        setups=[round(s, 4) for s in setups], rounds=len(rounds),
        rules=len(corpus.rules), entries=len(inp.entries), pinned={"client": client_cpu},
    )


# ----------------------------------------------------------------------
# per-layer metrics (traced runs)
# ----------------------------------------------------------------------


def _prom_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and (len(line) == len(name) or line[len(name)] in " {"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def layer_metrics(server_rec, pipe_rec, rounds, mean_rtt_us=0.0, rows_scanned=0.0,
                  overhead_pct=0.0) -> dict:
    """Per-call self times and counts from the traced run's spans.

    Server-side figures come from the ``repro serve`` process; the store
    and audit-entry figures merge both processes; the refinement figures
    come from the traced trail rounds of this process.
    """
    import spans

    merged = spans.SpanRecorder()
    if server_rec is not None:
        merged.merge(server_rec)
    merged.merge(pipe_rec)
    m = merged

    def per_call(name, scale=1e6):
        calls = m.calls(name)
        return m.self_seconds(name) / calls * scale if calls else 0.0

    def per(value, base):
        return value / base if base else 0.0

    requests = m.calls("serve.engine")
    frames = m.calls("serve.decode_frame")
    codec_self = m.self_seconds("serve.decode_frame", "serve.parse_request", "serve.encode_frame")
    codec_incl = m.inclusive_seconds("serve.decode_frame", "serve.parse_request", "serve.encode_frame")
    program_us = (per(codec_incl, frames) + per(m.inclusive_seconds("serve.engine"), requests)) * 1e6
    queries = m.calls("hdb.enforce")
    refines = sum(len(r.refine_s) for r in rounds)
    ingests = len(rounds)
    polls = m.samples.get("refine_daemon.poll", [])
    return {
        "serve.codec_us": per(codec_self, frames) * 1e6,
        "serve.engine_us": per_call("serve.engine"),
        "serve.overhead_us": mean_rtt_us - program_us if requests else 0.0,
        "hdb.enforce_us": per_call("hdb.enforce"),
        "hdb.permit_us": per_call("hdb.permit"),
        "hdb.audit_us": per_call("hdb.audit"),
        "hdb.audit_entries_per_request": per(m.counts.get("hdb.audit_entries", 0), requests),
        "sqlmini.execute_us": per_call("sqlmini.execute"),
        "sqlmini.mine_s": per(m.self_seconds("sqlmini.mine"), refines),
        "sqlmini.rows_scanned_per_query": per(rows_scanned, queries),
        "audit.entry_build_us": per_call("audit.entry_build"),
        "store.append_us": per_call("store.append"),
        "store.encode_us": per_call("store.encode"),
        "store.decode_us": per_call("store.decode"),
        "store.read_us": per_call("store.read"),
        "store.seal_s": per_call("store.seal", 1.0),
        "store.fsyncs_per_1k_entries": per(m.counts.get("store.fsyncs", 0),
                                           m.calls("store.append") / 1000),
        "refinement.coverage_s": per(m.self_seconds("refinement.coverage"), refines),
        "refinement.filter_s": per(m.self_seconds("refinement.filter"), refines),
        "refinement.extract_s": per(m.self_seconds("refinement.extract"), refines),
        "refinement.prune_s": per(m.self_seconds("refinement.prune"), refines),
        "refinement.entries_decoded_per_refine": per(
            sum(r.decoded_in_refine for r in rounds), refines),
        "policy.ground_s": per(m.self_seconds("policy.ground"), ingests),
        "parallel.map_s": per(m.self_seconds("parallel.map"), ingests),
        "parallel.finalize_s": per(m.self_seconds("parallel.finalize"), ingests),
        "refine_daemon.poll_s": statistics.median(polls) if polls else 0.0,
        "coverage.incremental_s": per(m.self_seconds("coverage.incremental"), ingests),
        "trace.overhead_pct": overhead_pct,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

WORKLOADS = ("serve-query", "refine-trail")


def _terminate(signum, frame):
    # unwind through every finally block: servers stop, scratch is removed
    raise SystemExit(128 + signum)


def run_once(args) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    out = Outcome()
    try:
        if args.workload == "refine-trail":
            run_refine_trail(args, workdir, out)
        else:
            run_served(args, workdir, out)
    except Exception as exc:  # a failed check or a crashed program
        import traceback

        traceback.print_exc()
        out.fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not out.metrics or out.attempted < 1:
        print(f"error: the run produced no result ({out.problems})", file=sys.stderr)
        return 1
    units = LAYER_UNITS if args.trace else E2E_UNITS
    missing = set(units) - set(out.metrics)
    if missing:
        print(f"error: metrics missing from the run: {sorted(missing)}", file=sys.stderr)
        return 1
    out.record["problems"] = out.problems
    print("record: " + json.dumps(out.record, sort_keys=True))
    print(json.dumps({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


def run_steadiness(args) -> int:
    """Repeat each workload with fresh seeds; print spreads next to bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for index in range(args.steadiness):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(1000 + index), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-4000:], sep="\n", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.steadiness} runs, failed share {sorted(shares)}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:24s} median {median:12.4f}  spread {spread:7.3%}  bound {bounds[name]:.0%}{flag}")
    print(f"worst spread / bound: {worst:.2f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="repeat each workload N times and print spreads")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steadiness:
        return run_steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    raise SystemExit(main())
