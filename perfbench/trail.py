"""The durable-trail half of the loop: ingest, tail, refine, scan, look up.

One *round* takes a fixed list of audit entries and a fixed policy and
runs, on a fresh durable trail in its own directory:

1. **ingest** -- the entries are appended segment by segment (store
   default fsync policy, ``interval``/256) and each segment is sealed;
   after every seal a :class:`RefineDaemon` polls.  Its gate queues every
   candidate for human review, so the policy never changes.  A final
   forced poll closes the ingest.
2. **refine** -- offline ``refine()`` over the durable trail, with the
   configuration ``repro refine --store-dir`` uses by default
   (``TrailInput.refines`` timed repeats).
3. **scan** -- full streaming scans of the trail (:data:`SCANS` repeats),
   each also timed slice by slice (:data:`SCAN_SLICE` entries a slice).
4. **lookups** -- optional indexed ``lookup(user=...)`` reads, the
   investigator's path into the trail.

Durable append throughput is timed apart, by an :class:`Appender`: short
passes of :data:`APPEND_SEGMENT` appends and a seal, which the caller
spreads over the whole run (``run_round`` calls its ``between`` hook
after every timed pass).

Every output is checked against :mod:`oracles`; a mismatch raises
:class:`CheckFailed`.  A full collection runs before each timed poll,
refine and scan, so each starts from the same heap.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import oracles

_clock = time.perf_counter


class CheckFailed(Exception):
    """An output of the program differed from its oracle."""


@dataclass
class TrailInput:
    """The fixed inputs of one round."""

    entries: list
    policy_store: object
    vocabulary: object
    segment_entries: int
    lookup_users: list = field(default_factory=list)
    #: timed offline refines per round
    refines: int = 2


#: entries per timed append pass (one segment, sealed)
APPEND_SEGMENT = 1000
#: append passes (segments) per trail of an :class:`Appender`
APPEND_TRAIL_SEGMENTS = 10
#: timed full scans per round
SCANS = 2
#: entries per timed slice of a full scan
SCAN_SLICE = 1000


@dataclass
class RoundTimes:
    """Wall-clock seconds of one round, one figure per timed pass."""

    poll_s: list
    refine_s: list
    scan_s: list
    #: every whole :data:`SCAN_SLICE`-entry slice of every scan
    scan_slice_s: list
    lookup_s: list
    trail_bytes: int
    decoded_in_refine: int = 0


def _entry_key(entry) -> tuple:
    return (
        entry.time, int(entry.op), entry.user, entry.data, entry.purpose,
        entry.authorized, int(entry.status), entry.truth,
    )


class TrailOracle:
    """Everything a round must reproduce, computed once per input."""

    def __init__(self, inp: TrailInput, mining) -> None:
        self.keys = [_entry_key(entry) for entry in inp.entries]
        self.patterns = oracles.group_by_patterns(
            inp.entries, mining.min_support, mining.min_distinct_users
        )
        by_user: dict[str, list] = {}
        for key in self.keys:
            by_user.setdefault(key[2], []).append(key)
        self.by_user = {user: by_user.get(user, []) for user in inp.lookup_users}


def _timed_scan(log) -> tuple[list, float, list]:
    """One full scan: (entry keys, seconds, seconds of each whole slice)."""
    keys, slices = [], []
    entries = iter(log)
    began = first = _clock()
    while True:
        before = len(keys)
        keys.extend(_entry_key(entry) for entry in islice(entries, SCAN_SLICE))
        now = _clock()
        if len(keys) - before < SCAN_SLICE:
            return keys, now - first, slices
        slices.append(now - began)
        began = now


class Appender:
    """Timed append passes, one segment each, into trails of their own.

    Each :meth:`step` appends the next :data:`APPEND_SEGMENT` entries of
    ``entries`` (cyclically) and seals their segment.  A trail takes
    :data:`APPEND_TRAIL_SEGMENTS` passes and is then checked (entry and
    sealed-segment counts) and removed, so every pass appends to a trail
    of the same size range.  ``len(entries)`` must be a multiple of a
    trail's worth of entries.
    """

    def __init__(self, entries: list, workdir: Path) -> None:
        per_trail = APPEND_SEGMENT * APPEND_TRAIL_SEGMENTS
        if len(entries) % per_trail:
            raise ValueError(f"{len(entries)} entries do not fill whole trails of {per_trail}")
        self.entries = entries
        self.workdir = workdir
        self.append_s: list[float] = []
        self._log = None

    def step(self) -> None:
        from repro.store.durable import DurableAuditLog

        index = len(self.append_s)
        if self._log is None:
            self._log = DurableAuditLog(Path(tempfile.mkdtemp(prefix="append-", dir=self.workdir)))
        start = index * APPEND_SEGMENT % len(self.entries)
        began = _clock()
        self._log.extend(self.entries[start:start + APPEND_SEGMENT])
        self._log.seal_active()
        self.append_s.append(_clock() - began)
        if (index + 1) % APPEND_TRAIL_SEGMENTS == 0:
            self._close(check=True)

    def _close(self, check: bool) -> None:
        log, self._log = self._log, None
        try:
            expected = APPEND_SEGMENT * APPEND_TRAIL_SEGMENTS
            if check and (len(log) != expected
                          or len(log.sealed_segments()) != APPEND_TRAIL_SEGMENTS):
                raise CheckFailed(
                    f"{expected} entries appended in {APPEND_TRAIL_SEGMENTS} sealed "
                    f"segments; the trail holds {len(log)} in {len(log.sealed_segments())}"
                )
        finally:
            log.close()
            shutil.rmtree(log.store.directory, ignore_errors=True)

    def close(self) -> None:
        """Remove the trail a run left unfinished."""
        if self._log is not None:
            self._close(check=False)


def run_round(inp: TrailInput, oracle: TrailOracle, workdir: Path,
              recorder=None, between=None) -> RoundTimes:
    """Run one round in a fresh directory under ``workdir``; check it.

    ``between``, when given, is called after every timed pass.
    """
    from repro.mining.patterns import MiningConfig
    from repro.policy.parser import format_rule
    from repro.refine_daemon import (
        DaemonConfig,
        QueueForReviewGate,
        RefineDaemon,
        StorePolicyTarget,
    )
    from repro.refinement.engine import RefinementConfig, refine
    from repro.store.durable import DurableAuditLog

    between = between or (lambda: None)
    mining = MiningConfig()
    directory = Path(tempfile.mkdtemp(prefix="trail-", dir=workdir))
    log = DurableAuditLog(directory / "trail")
    try:
        daemon = RefineDaemon(
            log, StorePolicyTarget(inp.policy_store), inp.vocabulary,
            QueueForReviewGate(), DaemonConfig(mining=mining),
        )
        entries, step = inp.entries, inp.segment_entries
        poll_s = []
        for start in range(0, len(entries), step):
            gc.collect()
            log.extend(entries[start:start + step])
            log.seal_active()
            began = _clock()
            daemon.poll()
            poll_s.append(_clock() - began)
            between()
        began = _clock()
        daemon.poll(force_mine=True)
        poll_s.append(_clock() - began)
        between()

        # refines, scans and lookup passes alternate, so each spreads
        # over the whole round
        refine_s, results, scan_s, scan_slice_s, scans = [], [], [], [], []
        lookup_s, looked_up = [], []
        users = inp.lookup_users
        passes = max(inp.refines, SCANS)
        share = -(-len(users) // passes)
        decoded = 0
        for index in range(passes):
            if index < inp.refines:
                gc.collect()
                decoded_before = recorder.calls("store.decode") if recorder else 0
                began = _clock()
                results.append(refine(
                    inp.policy_store.policy(), log, inp.vocabulary,
                    RefinementConfig(mining=mining),
                ))
                refine_s.append(_clock() - began)
                if recorder:
                    decoded += recorder.calls("store.decode") - decoded_before
                between()
            if index < SCANS:
                gc.collect()
                keys, seconds, slices = _timed_scan(log)
                scans.append(keys)
                scan_s.append(seconds)
                scan_slice_s.extend(slices)
                between()
            for user in users[index * share:(index + 1) * share]:
                began = _clock()
                found = [_entry_key(entry) for entry in log.lookup(user=user)]
                lookup_s.append(_clock() - began)
                looked_up.append(found)
            if users:
                between()

        trail_bytes = sum(path.stat().st_size for path in (directory / "trail").glob("*.seg"))

        # ---- checks (outside every timed interval)
        if any(scanned != oracle.keys for scanned in scans):
            raise CheckFailed("a full scan did not return the appended entries in order")
        result = results[0]
        if any(
            (other.patterns, other.useful_patterns) != (result.patterns, result.useful_patterns)
            for other in results[1:]
        ):
            raise CheckFailed("repeated refine() runs over one trail disagree")
        mined = {
            tuple(pattern.rule.value_of(a) for a in ("data", "purpose", "authorized")):
                (pattern.support, pattern.distinct_users)
            for pattern in result.patterns
        }
        if len(mined) != len(result.patterns) or mined != oracle.patterns:
            raise CheckFailed(
                f"refine() mined {len(result.patterns)} patterns; the GROUP BY "
                f"oracle expects {len(oracle.patterns)} (or supports differ)"
            )
        offline = {
            (format_rule(p.rule), p.support, p.distinct_users)
            for p in result.useful_patterns
        }
        online = {
            (c.rule, c.support, c.distinct_users) for c in daemon.state.pending
        }
        if online != offline or daemon.state.accepted:
            raise CheckFailed(
                f"the daemon's final round holds {len(online)} candidates, "
                f"offline refine() {len(offline)}; they differ"
            )
        for user, found in zip(inp.lookup_users, looked_up):
            if found != oracle.by_user[user]:
                raise CheckFailed(f"lookup(user={user!r}) returned the wrong entries")
    finally:
        log.close()
        shutil.rmtree(directory, ignore_errors=True)
    return RoundTimes(
        poll_s=poll_s, refine_s=refine_s,
        scan_s=scan_s, scan_slice_s=scan_slice_s, lookup_s=lookup_s, trail_bytes=trail_bytes,
        decoded_in_refine=decoded,
    )
