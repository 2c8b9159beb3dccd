"""Timing wrappers around the program's public functions (traced runs).

A :class:`SpanRecorder` replaces a function or method *where the program
looks it up* (a module attribute or a class attribute) with a wrapper
that records one span per call.  Spans nest on a stack: when a wrapped
call returns, its duration is charged to its parent as child time, so
every name accumulates both its inclusive time and its **self time**
(duration minus the wrapped calls it made).  Generators are timed step
by step, so the work done per yielded item is charged to the generator.

Aggregates stay in memory -- calls, inclusive seconds, self seconds, and
optionally every self time -- and are dumped once at the end of a run.
Nothing here reads the program's own histograms.
"""

from __future__ import annotations

import functools
import time

_clock = time.perf_counter


class SpanRecorder:
    """Span stack plus per-name aggregates for one process."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: names whose individual self times are kept (for medians)
        self.samples: dict[str, list[float]] = {}
        #: plain event counters (fsyncs, entries written)
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _close(self, name: str, started: float) -> None:
        elapsed = _clock() - started
        stack = self._stack
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        slot = self.totals.get(name)
        if slot is None:
            slot = self.totals[name] = [0, 0.0, 0.0]
        slot[0] += 1
        slot[1] += elapsed
        slot[2] += elapsed - child
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(elapsed - child)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """A wrapper timing each call of ``fn`` under ``name``.

        ``after(result, args, kwargs)`` runs outside the timed interval
        and may record counts derived from the call.
        """
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, started)
            if after is not None:
                after(result, args, kwargs)
            return result

        return timed

    def wrap_generator(self, name: str, fn):
        """A wrapper timing every step of the generator ``fn`` returns.

        One span per yielded item (the final, empty step is charged to
        the last item), so ``calls`` counts items.
        """
        stack = self._stack
        totals = self.totals

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                started = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    elapsed = _clock() - started
                    child = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    slot = totals.setdefault(name, [0, 0.0, 0.0])
                    slot[1] += elapsed
                    slot[2] += elapsed - child
                    return
                except BaseException:
                    stack.pop()
                    raise
                self._close(name, started)
                yield item

        return timed

    # ------------------------------------------------------------------
    # installing
    # ------------------------------------------------------------------
    def count_calls(self, owner, attribute: str, name: str, when) -> None:
        """Count calls of ``owner.attribute`` for which ``when(args,
        kwargs)`` holds, without opening a span (undoable)."""
        original = owner.__dict__[attribute]
        count = self.count

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if when(args, kwargs):
                count(name)
            return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, counted)

    def patch(self, owner, attribute: str, name: str, *, generator=False,
              after=None, keep_samples=False, also=()) -> None:
        """Replace ``owner.attribute`` by its timed wrapper (undoable).

        ``also`` names further modules that imported the same function
        under the same name; they get the same wrapper.
        """
        original = owner.__dict__[attribute]
        if keep_samples:
            self.samples.setdefault(name, [])
        if generator:
            wrapper = self.wrap_generator(name, original)
        else:
            wrapper = self.wrap(name, original, after=after)
        for target in (owner, *also):
            self._patches.append((target, attribute, target.__dict__[attribute]))
            setattr(target, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def inclusive_seconds(self, *names: str) -> float:
        return sum(self.totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def dump(self) -> dict:
        return {
            "totals": {name: list(slot) for name, slot in self.totals.items()},
            "samples": {name: list(v) for name, v in self.samples.items()},
            "counts": dict(self.counts),
        }

    @classmethod
    def load(cls, payload: dict) -> "SpanRecorder":
        recorder = cls()
        recorder.totals = {name: list(slot) for name, slot in payload["totals"].items()}
        recorder.samples = {name: list(v) for name, v in payload["samples"].items()}
        recorder.counts = dict(payload["counts"])
        return recorder

    def merge(self, other: "SpanRecorder") -> None:
        """Add ``other``'s aggregates into this recorder."""
        for name, (calls, inclusive, own) in other.totals.items():
            slot = self.totals.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += inclusive
            slot[2] += own
        for name, values in other.samples.items():
            self.samples.setdefault(name, []).extend(values)
        for name, amount in other.counts.items():
            self.count(name, amount)


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------


def install_common(recorder: SpanRecorder) -> None:
    """Audit-entry construction and the durable store (every process)."""
    from repro.audit.entry import AuditEntry
    from repro.store import codec, segment, store

    recorder.patch(AuditEntry, "__post_init__", "audit.entry_build")
    recorder.patch(store.AuditStore, "append", "store.append")
    recorder.patch(store.AuditStore, "seal_active", "store.seal")
    recorder.patch(codec, "encode_payload", "store.encode")
    recorder.patch(segment, "decode_payload", "store.decode")
    # every caller reaches iter_segment through one of these two names
    recorder.patch(segment, "iter_segment", "store.read", generator=True,
                   also=(store,))

    recorder.count_calls(
        segment.SegmentWriter, "flush", "store.fsyncs",
        lambda args, kwargs: kwargs.get("sync", args[1] if len(args) > 1 else False),
    )


def install_server(recorder: SpanRecorder) -> None:
    """The served query path, inside the ``repro serve`` process."""
    from repro.hdb.auditing import ComplianceAuditor
    from repro.hdb.enforcement import ActiveEnforcer
    from repro.serve import protocol
    from repro.serve.engine import PdpEngine
    from repro.sqlmini.database import Database

    install_common(recorder)
    recorder.patch(protocol, "decode_frame", "serve.decode_frame")
    recorder.patch(protocol, "parse_request", "serve.parse_request")
    recorder.patch(protocol, "encode_frame", "serve.encode_frame")
    recorder.patch(PdpEngine, "query", "serve.engine")
    recorder.patch(ActiveEnforcer, "execute", "hdb.enforce")
    recorder.patch(ActiveEnforcer, "policy_permits", "hdb.permit")

    def count_entries(result, args, kwargs):
        recorder.count("hdb.audit_entries", len(result))

    recorder.patch(ComplianceAuditor, "record_access", "hdb.audit",
                   after=count_entries)
    recorder.patch(Database, "execute_statement", "sqlmini.execute")
    recorder.patch(Database, "query", "sqlmini.execute")


def install_refinement(recorder: SpanRecorder) -> None:
    """Offline and online refinement, inside the benchmark process."""
    from repro.coverage.incremental import IncrementalCoverage
    from repro.policy.grounding import Grounder
    from repro.refine_daemon import daemon
    from repro.refinement import engine
    from repro.sqlmini.database import Database
    from repro.store.durable import AuditReadOps

    install_common(recorder)
    recorder.patch(AuditReadOps, "to_policy", "refinement.coverage")
    recorder.patch(engine, "compute_coverage", "refinement.coverage")
    recorder.patch(engine, "compute_entry_coverage", "refinement.coverage")
    recorder.patch(engine, "filter_practice", "refinement.filter")
    recorder.patch(engine, "extract_patterns", "refinement.extract")
    recorder.patch(engine, "prune_patterns", "refinement.prune")
    recorder.patch(Database, "execute_statement", "sqlmini.mine")
    recorder.patch(Database, "query", "sqlmini.mine")
    for method in ("ground_rules", "ground_mask", "range_of"):
        recorder.patch(Grounder, method, "policy.ground")
    recorder.patch(daemon, "map_shard", "parallel.map")
    recorder.patch(daemon, "finalize_patterns", "parallel.finalize")
    recorder.patch(daemon.RefineDaemon, "poll", "refine_daemon.poll",
                   keep_samples=True)
    for method in ("observe", "add_rule"):
        recorder.patch(IncrementalCoverage, method, "coverage.incremental")
