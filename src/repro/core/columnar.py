"""The detection engine: columnar storage + batched scoring.

Closing a 30-second window costs a seven-number summary, a median
check, a baseline append and — when a verdict reads it — an LOF score.
Done per pair in Python, each is a handful of small numpy calls whose
interpreter overhead dominates at thousands of pairs
(docs/PERFORMANCE.md has the measurements).  Here every pair's state
lives in one *columnar* store indexed by a pair→row table:

* **Open-window columns** — one ``(pairs × samples)`` latency matrix
  plus window-start/sent/lost/consecutive-loss arrays; a round's
  probes are scattered into their rows in a few numpy calls
  (:meth:`ColumnarDetectionEngine.ingest_batch`; one probe is a batch of
  one row), elapsed windows — found by a mask — closing into a queue
  of column blocks (one block per close, at most one window per row,
  latencies copied as one matrix) beside the set of rows it holds.
* **Ring-buffered LOF history** — a ``(pairs × lookback × 7)`` feature
  matrix with per-row fill counts and eviction heads; the short-term
  baseline for *every* pair lives in one array.
* **Long-term aggregates** — delivered times and latencies in
  fixed-size float64 blocks (``[sample, row]``) consumed into 30-minute
  windows, with the log-normal fits stored as ``mu``/``sigma`` columns.

Scoring is deferred to :meth:`ColumnarDetectionEngine.collect`, which
drains the queue in *waves* (the i-th queued window of every row), so
the loss rules, summary statistics, median-shift checks, LOF
(:func:`lof_scores_fixed_batch`), baseline appends, and long-term
Z-tests (:func:`z_test_rows`) each run as a few numpy calls over all
pairs at once instead of per-pair Python loops; Python objects are
built only for the windows a collect emits.  Per-row window ordering —
the thing detector state depends on — is preserved because wave w+1
never runs before every row's wave-w window has been scored and (if
healthy) admitted to the baseline.

What pins the semantics: the batched kernels are tested against the
scalar definitions (:func:`~repro.analysis.lof.lof_score_of_new_point`,
:func:`~repro.analysis.stats.fit_lognormal`,
:func:`~repro.analysis.stats.z_test`) — directly and, window by window
over random probe streams, through this engine
(``tests/property/test_columnar_equivalence.py``) — and the whole
analyzer is pinned to a committed recording of reference verdicts
(``tests/golden/detector_reference.json``, scores within 1e-10:
batched reductions reassociate float sums, which moves results by
~1e-15 relative but never past a detection threshold for continuously
distributed latencies).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.lof import lof_scores_fixed_batch
from repro.analysis.stats import fit_lognormal_rows, z_test_rows
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult, endpoints_of

__all__ = ["ColumnarDetectionEngine", "ScoredWindow"]

#: Feature dimensionality: (p25, p50, p75, min, mean, std, max).
_FEATURES = 7


class _Block(NamedTuple):
    """Windows queued together, at most one per row, as columns.

    A short block holds each window's bounds and counts and its
    delivered latencies: a ``(windows × width)`` matrix with ``inf``
    past each row's ``lens``, the padding the summaries sort last.  A
    long block holds each 30-minute aggregate's end and its latencies
    in ``values``; its short-only columns are ``None``.
    """

    rows: np.ndarray
    ends: np.ndarray
    starts: Optional[np.ndarray] = None
    sent: Optional[np.ndarray] = None
    lost: Optional[np.ndarray] = None
    lens: Optional[np.ndarray] = None
    lats: Optional[np.ndarray] = None
    values: Optional[List[np.ndarray]] = None

    def take(self, index: np.ndarray) -> "_Block":
        """The windows at positions ``index``."""
        return _Block(*(
            None if part is None
            else [part[i] for i in index.tolist()] if isinstance(part, list)
            else part[index]
            for part in self
        ))


class ScoredWindow(NamedTuple):
    """One detector verdict the engine hands back to the analyzer.

    ``kind`` is ``"short"`` (a 30-second window: loss rules + LOF) or
    ``"long"`` (a 30-minute Z-tested aggregate).  ``score`` carries the
    LOF score (short) or the Z statistic (long) when the window was
    actually scored; loss-rule and unscored windows leave it ``None``.
    ``samples`` is the long window's sample count (0 for short).
    """

    pair: ProbePair
    kind: str
    window_start: float
    window_end: float
    sent: int
    lost: int
    anomaly: Optional[DetectedAnomaly]
    score: Optional[float]
    median_shifted: Optional[bool]
    samples: int


class ColumnarDetectionEngine:
    """All pairs' detection state in matrices, scored in batches.

    The engine owns storage and scoring; incident bookkeeping (events,
    resolution, recorder spans) stays in :class:`~repro.core.analyzer.
    Analyzer`, which consumes the ordered :class:`ScoredWindow` stream.
    Windows close *lazily*: ``ingest`` queues them (so no probe ever
    pollutes an elapsed window) and ``collect`` scores every queued
    window across all pairs at once — per-pair verdicts are what
    scoring each window as it closed would give, they just materialize
    at the next ``Analyzer.flush`` (or immediately, via
    :meth:`collect_rows`, when the fast-unconnectivity path needs
    in-order draining).

    A collect costs what its verdicts read: with nothing queued it
    returns at once (the set of queued rows is kept as windows are
    queued and drained); a wave is numpy over its columns, LOF runs
    behind the median-shift gate on the windows that shifted or are
    emitted, and a :class:`ScoredWindow` is built only for a window
    that is emitted.
    """

    #: Initial open-window latency capacity (columns); grows by
    #: doubling when a window outgrows it.
    _INITIAL_SAMPLES = 32

    #: Per-row scalar columns and what an unused row holds in each.
    _COLUMNS = (
        ("_ws", np.nan), ("_sent", 0), ("_lost", 0), ("_consec", 0),
        ("_lat_n", 0), ("_long_start", np.nan), ("_long_n", 0),
        ("_long_last", np.nan), ("_hist_n", 0), ("_hist_head", 0),
    )
    #: Samples per long-window block.
    _LONG_BLOCK = 64
    #: Per-row sample matrices (never read past a row's count, so new
    #: capacity is left unwritten — and unpaged).
    _MATRICES = ("_lat", "_hist")

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        # Per-instance default (lint rule "shared-instance-default").
        self.config = config if config is not None else DetectorConfig()
        cfg = self.config
        self._short_s = cfg.short_window_s
        self._long_s = cfg.long_window_s
        self._lookback = max(int(cfg.lookback_windows), 1)

        self._rows: Dict[ProbePair, int] = {}
        self._row_pair: List[Optional[ProbePair]] = []
        self._free: List[int] = []
        #: Bumped whenever a row is added, dropped or recycled; the row
        #: vector of the last batch's pair sequence, ``(layout, pairs,
        #: canonical pairs, rows, distinct)``, is good for one layout.
        self._layout = 0
        self._located: Optional[tuple] = None

        # Open-window columns: window start (NaN before the first
        # probe), counters, and the window's delivered latencies.
        self._ws = np.empty(0)
        self._sent = np.empty(0, dtype=np.int64)
        self._lost = np.empty(0, dtype=np.int64)
        self._consec = np.empty(0, dtype=np.int64)
        self._lat_n = np.empty(0, dtype=np.int64)
        self._lat = np.empty((0, self._INITIAL_SAMPLES))

        # Long-window buffers (consumed once per 30 minutes per pair):
        # the times and latencies of the row's delivered probes since
        # its last consumed aggregate.  Sample *k* of a row lives in
        # block ``k // _LONG_BLOCK``, a float64 ``[time | latency,
        # sample, row]`` array: a round appends one contiguous stripe
        # per plane, a full block is followed by a new one, and nothing
        # is ever copied to make room — so memory is the samples held
        # (8 bytes each, against a list slot plus a boxed float), with
        # no doubling slack and no grow-time peak.
        self._long_start = np.empty(0)
        self._long_n = np.empty(0, dtype=np.int64)
        self._long_last = np.empty(0)  # time of the newest sample held
        self._long_blocks: List[np.ndarray] = []
        self._fit_mu: List[Optional[float]] = []
        self._fit_sigma: List[Optional[float]] = []

        # Ring-buffered LOF baseline: first ``hist_n`` slots are valid;
        # once full, ``hist_head`` is the next eviction (overwrite) slot.
        self._hist = np.empty((0, self._lookback, _FEATURES))
        self._hist_n = np.empty(0, dtype=np.int64)
        self._hist_head = np.empty(0, dtype=np.int64)

        # Windows awaiting a scoring pass, in the order they closed (a
        # row's windows in its blocks' order), and the rows they hold.
        self._queue: List[_Block] = []
        self._queued: set = set()

    # ------------------------------------------------------------------
    # Pair / row management
    # ------------------------------------------------------------------

    @property
    def num_pairs(self) -> int:
        """How many pairs currently own a row."""
        return len(self._rows)

    def pairs(self) -> List[ProbePair]:
        """Monitored pairs in first-probe order."""
        return list(self._rows)

    def row_of(self, pair: ProbePair) -> Optional[int]:
        """The pair's row index, or ``None`` when unmonitored."""
        return self._rows.get(pair)

    def pair_of(self, row: int) -> Optional[ProbePair]:
        """The pair that owns ``row`` (``None`` for a free row)."""
        return self._row_pair[row]

    def consecutive_losses(self, rows):
        """Current run of consecutive losses on a row, or on each row
        of an array."""
        return self._consec[rows]

    def history(self, pair: ProbePair) -> np.ndarray:
        """The pair's LOF baseline: the valid ``(n, 7)`` slots of its
        ring, in slot order (a view — copy to keep it past a collect)."""
        row = self._rows.get(pair)
        if row is None:
            return np.empty((0, _FEATURES))
        return self._hist[row, :self._hist_n[row]]

    def _grow_rows(self, need: int) -> None:
        old = len(self._row_pair) - 1  # rows in use before this one
        new = max(need, self._lat.shape[0] * 2, 16)
        for name, unused in self._COLUMNS:
            column = getattr(self, name)
            grown = np.full(new, unused, dtype=column.dtype)
            grown[:old] = column[:old]
            setattr(self, name, grown)
        for name in self._MATRICES:
            self._regrow(name, new, getattr(self, name).shape[1])
        for i, block in enumerate(self._long_blocks):
            self._long_blocks[i] = np.empty(block.shape[:2] + (new,))
            self._long_blocks[i][:, :, :old] = block[:, :, :old]

    def _regrow(self, name: str, rows: int, samples: int) -> None:
        """Move a sample matrix into one of ``rows`` x ``samples``,
        copying only the rows in use."""
        matrix = getattr(self, name)
        used = min(len(self._row_pair), matrix.shape[0])
        grown = np.empty((rows, samples) + matrix.shape[2:])
        grown[:used, :matrix.shape[1]] = matrix[:used]
        setattr(self, name, grown)

    def _add_pair(self, pair: ProbePair) -> int:
        if self._free:
            row = self._free.pop()
            self._row_pair[row] = pair
        else:
            row = len(self._row_pair)
            self._row_pair.append(pair)
            self._fit_mu.append(None)
            self._fit_sigma.append(None)
            if row >= self._lat.shape[0]:
                self._grow_rows(row + 1)
        self._rows[pair] = row
        self._layout += 1
        return row

    def drop(self, pair: ProbePair) -> None:
        """Forget a pair entirely (windows, baselines, fit, pending)."""
        row = self._rows.pop(pair, None)
        if row is None:
            return
        self._row_pair[row] = None
        for name, unused in self._COLUMNS:
            getattr(self, name)[row] = unused
        self._fit_mu[row] = None
        self._fit_sigma[row] = None
        if row in self._queued:
            self._queued.discard(row)
            self._queue = self._split([row])[1]
        self._free.append(row)
        self._layout += 1

    def _split(self, rows) -> Tuple[List[_Block], List[_Block]]:
        """The queue split into the windows of ``rows`` and the rest,
        each in queue order."""
        picked = np.zeros(len(self._row_pair), dtype=bool)
        picked[rows] = True
        mine: List[_Block] = []
        rest: List[_Block] = []
        for block in self._queue:
            hit = picked[block.rows]
            if hit.all():
                mine.append(block)
            elif hit.any():
                mine.append(block.take(np.flatnonzero(hit)))
                rest.append(block.take(np.flatnonzero(~hit)))
            else:
                rest.append(block)
        return mine, rest

    def _locate(self, pairs: List[object]) -> tuple:
        """``(canonical pairs, rows, distinct)`` of a pair sequence:
        each pair's row (-1 while unmonitored) and whether no pair
        repeats.  Kept for the next batch over the same sequence, which
        then costs one list comparison.  A canonical pair canonicalizes
        to itself — the caller's own object, which a new row keeps as
        its key — so a pair probed again is one lookup that matches by
        identity; only a pair without a row (new, reversed or a tuple)
        is sorted."""
        located = self._located
        if (
            located is not None and located[0] == self._layout
            and located[1] == pairs
        ):
            return located[2:]
        held = self._rows.get
        given = list(pairs)
        rows = list(map(held, given, repeat(-1)))
        canonical = given
        for i in [i for i, row in enumerate(rows) if row < 0]:
            ordered = ProbePair.canonical(*endpoints_of(given[i]))
            if ordered != given[i]:
                if canonical is given:
                    canonical = list(given)
                canonical[i] = ordered
                rows[i] = held(ordered, -1)
        distinct = len({
            pair if row < 0 else row for pair, row in zip(canonical, rows)
        }) == len(rows)
        self._located = (
            self._layout, given, canonical,
            np.array(rows, dtype=np.int64), distinct,
        )
        return self._located[2:]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, pair: ProbePair, result: ProbeResult) -> int:
        """Append one probe into the pair's columns; returns the row —
        :meth:`ingest_batch` over a single row."""
        return int(self.ingest_batch(
            [pair],
            np.array([result.sent_at], dtype=np.float64),
            np.array([result.lost], dtype=bool),
            np.array(
                [np.nan if result.lost else result.latency_us],
                dtype=np.float64,
            ),
        )[0])

    def ingest_batch(
        self,
        pairs: Sequence[object],
        sent_at: np.ndarray,
        lost: np.ndarray,
        latency_us: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Append one probe per pair into the columns; returns each
        probe's row.

        The rows of a batch are independent — a probe touches its own
        row only — so they are checked together (a delivered probe
        older than its row's last raises before anything is written)
        and then written together.  Elapsed 30-second windows are
        closed into the pending queue (never scored here) so a late
        probe can't leak into a window that already ended.  A batch in
        which a pair repeats is refused — ``None``, nothing touched —
        because its second probe depends on its first: the caller feeds
        such a batch row by row.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        canonical, rows, distinct = self._locate(pairs)
        if not distinct:
            return None
        delivered = ~lost
        known = rows >= 0
        # A row holding no sample has NaN for its newest: never late.
        probed = np.flatnonzero(delivered & known)
        late = sent_at[probed] < self._long_last[rows[probed]]
        if late.any():
            i = int(probed[np.argmax(late)])
            raise ValueError(
                f"pair {canonical[i]} probes must arrive in time order: "
                f"{float(sent_at[i])} < {float(self._long_last[rows[i]])}"
            )
        if not known.all():
            rows = rows.copy()
            for i in np.flatnonzero(~known).tolist():
                rows[i] = self._add_pair(canonical[i])

        ws = self._ws[rows]
        fresh = np.isnan(ws)
        if fresh.any():
            self._ws[rows[fresh]] = sent_at[fresh]
            self._long_start[rows[fresh]] = sent_at[fresh]
            ws = self._ws[rows]
        due = sent_at >= ws + self._short_s
        if due.any():
            self._close_shorts(rows[due], sent_at[due])
        self._sent[rows] += 1
        if not delivered.all():
            gone = rows[lost]
            self._lost[gone] += 1
            self._consec[gone] += 1
            rows_d = rows[delivered]
            sent_at = sent_at[delivered]
            latency_us = latency_us[delivered]
        else:
            rows_d = rows
        if rows_d.size:
            self._consec[rows_d] = 0
            n = self._lat_n[rows_d]
            if n.max() >= self._lat.shape[1]:
                self._regrow(
                    "_lat", self._lat.shape[0], 2 * self._lat.shape[1]
                )
            self._lat[rows_d, n] = latency_us
            self._lat_n[rows_d] = n + 1
            n = self._long_n[rows_d]
            index, slot = np.divmod(n, self._LONG_BLOCK)
            for b in range(int(index.min()), int(index.max()) + 1):
                if b == len(self._long_blocks):
                    self._long_blocks.append(np.empty(
                        (2, self._LONG_BLOCK, self._lat.shape[0])
                    ))
                here = index == b
                block = self._long_blocks[b]
                block[0, slot[here], rows_d[here]] = sent_at[here]
                block[1, slot[here], rows_d[here]] = latency_us[here]
            self._long_n[rows_d] = n + 1
            self._long_last[rows_d] = sent_at
        return rows

    def _close_shorts(self, rows: np.ndarray, until: np.ndarray) -> None:
        """Queue every window of ``rows`` (distinct) that ended by the
        row's ``until``: one block of the windows holding what each row
        collected, then one block of empty windows per further window
        elapsed."""
        short_s = self._short_s
        starts = self._ws[rows]
        lens = self._lat_n[rows]
        lats = self._lat[rows, :int(lens.max())]
        lats[np.arange(lats.shape[1]) >= lens[:, None]] = np.inf
        ends = starts + short_s
        self._queue.append(_Block(
            rows, ends, starts, self._sent[rows], self._lost[rows], lens,
            lats,
        ))
        self._queued.update(rows.tolist())
        starts = ends.copy()
        gap = np.flatnonzero(until >= starts + short_s)
        while gap.size:
            nothing = np.zeros(gap.size, dtype=np.int64)
            ends = starts[gap] + short_s
            self._queue.append(_Block(
                rows[gap], ends, starts[gap], nothing, nothing, nothing,
                np.empty((gap.size, 0)),
            ))
            starts[gap] = ends
            gap = gap[until[gap] >= ends + short_s]
        self._ws[rows] = starts
        self._sent[rows] = 0
        self._lost[rows] = 0
        self._lat_n[rows] = 0

    def enqueue_window(
        self,
        pair: ProbePair,
        window_start: float,
        window_end: float,
        sent: int,
        lost: int,
        latencies: Optional[np.ndarray] = None,
    ) -> int:
        """Queue one already-closed short window directly.

        Bypasses per-probe ingestion for callers that produce whole
        windows (the window-level tests), so they exercise exactly the
        batched scoring path.
        """
        row = self._rows.get(pair)
        if row is None:
            row = self._add_pair(pair)
        lats = np.asarray(
            () if latencies is None else latencies, dtype=np.float64
        ).reshape(1, -1)
        self._queue.append(_Block(
            np.array([row]), np.array([window_end], dtype=np.float64),
            np.array([window_start], dtype=np.float64),
            np.array([sent]), np.array([lost]),
            np.array([lats.shape[1]]), lats,
        ))
        self._queued.add(row)
        return row

    def queue_elapsed_longs(self, rows, now) -> None:
        """Queue the 30-minute aggregates of ``rows`` (one row or an
        array, distinct) that elapsed by ``now`` (one time, or one per
        row): the i-th of each row in the i-th block."""
        rows = np.atleast_1d(rows)
        now = np.broadcast_to(now, rows.shape)
        long_s = self._long_s
        due = now >= self._long_start[rows] + long_s
        if not due.any():
            return
        size = self._LONG_BLOCK
        # Per depth: (rows, ends, values).
        levels: List[Tuple[list, list, list]] = []
        for row, t in zip(rows[due].tolist(), now[due].tolist()):
            start = float(self._long_start[row])
            n = int(self._long_n[row])
            held = np.concatenate([
                block[:, :, row]
                for block in self._long_blocks[:-(-n // size)]
            ] or [np.empty((2, 0))], axis=1)[:, :n]
            lo = depth = 0
            while t >= start + long_s:
                end = start + long_s
                hi = lo + int(
                    np.searchsorted(held[0, lo:], end, side="left")
                )
                if depth == len(levels):
                    levels.append(([], [], []))
                for column, value in zip(
                    levels[depth], (row, end, held[1, lo:hi])
                ):
                    column.append(value)
                lo, start, depth = hi, end, depth + 1
            # What is left moves down to the row's first samples.
            for b in range(-(-(n - lo) // size)):
                part = held[:, lo + b * size:lo + (b + 1) * size]
                self._long_blocks[b][:, :part.shape[1], row] = part
            self._long_n[row] = n - lo
            if lo == n:
                self._long_last[row] = np.nan
            self._long_start[row] = start
        del self._long_blocks[-(-int(self._long_n.max()) // size):]
        for held_rows, ends, values in levels:
            self._queue.append(_Block(
                np.array(held_rows), np.array(ends), values=values
            ))
        self._queued.update(levels[0][0])

    def close_elapsed(self, now: float) -> None:
        """Close every elapsed short and long window across all rows
        (an unused row's start is NaN, which is never elapsed)."""
        due = np.flatnonzero(now >= self._ws + self._short_s)
        if due.size:
            self._close_shorts(due, np.full(due.size, now))
        self.queue_elapsed_longs(
            np.flatnonzero(now >= self._long_start + self._long_s), now
        )

    def has_pending(self) -> bool:
        """Whether any row holds unscored windows."""
        return bool(self._queued)

    # ------------------------------------------------------------------
    # Batched scoring
    # ------------------------------------------------------------------

    def collect(
        self, full: bool = False, watch: Optional[Dict] = None
    ) -> List[ScoredWindow]:
        """Score every pending window across all pairs, in batches.

        ``full`` emits a verdict for *every* window (the recorder needs
        one ``detect.lof`` / ``detect.ztest`` event per scored window);
        otherwise healthy windows are emitted only for pairs in
        ``watch`` (open incidents that may resolve) or pairs that
        alarmed earlier in this collection — the cases where the
        analyzer's bookkeeping actually inspects them.  Verdicts come
        row by row in first-probe order; with nothing queued this
        returns at once.
        """
        queued = self._queued
        if not queued:
            return []
        if len(queued) == len(self._rows):
            active = list(self._rows.values())
        else:
            active = [r for r in self._rows.values() if r in queued]
        return self._collect_rows(active, full, watch)

    def collect_rows(
        self,
        rows: Sequence[int],
        full: bool = False,
        watch: Optional[Dict] = None,
    ) -> List[ScoredWindow]:
        """Score the pending windows of specific rows (fast-path drain)."""
        chosen = [r for r in rows if r in self._queued]
        return self._collect_rows(chosen, full, watch)

    def _collect_rows(
        self, active: List[int], full: bool, watch: Optional[Dict]
    ) -> List[ScoredWindow]:
        if not active:
            return []
        if len(active) == len(self._queued):
            blocks, self._queue = self._queue, []
            self._queued.clear()
        else:
            blocks, self._queue = self._split(active)
            self._queued.difference_update(active)
        size = len(self._row_pair)
        flagged = np.zeros(size, dtype=bool)  # alarmed in this collect
        watched = None
        if watch:
            watched = np.zeros(size, dtype=bool)
            for pair in watch:
                row = self._rows.get(pair)
                if row is not None:
                    watched[row] = True
        out: Dict[int, List[ScoredWindow]] = {}
        for shorts, longs in self._waves(blocks):
            if shorts:
                self._score_short_wave(
                    self._joined(shorts), out, flagged, full, watched
                )
            if longs:
                self._score_long_wave(longs, out, flagged, full)
        verdicts: List[ScoredWindow] = []
        if out:
            place = np.zeros(size, dtype=np.int64)
            place[active] = np.arange(len(active))
            emitted = np.fromiter(out, dtype=np.int64, count=len(out))
            for row in emitted[np.argsort(place[emitted])].tolist():
                verdicts.extend(out[row])
        return verdicts

    def _waves(
        self, blocks: List[_Block]
    ) -> List[Tuple[List[_Block], List[_Block]]]:
        """``(short blocks, long blocks)`` of each wave: wave w holds
        the w-th queued window of every row, so a row's windows are
        scored in the order they closed."""
        seen = np.zeros(len(self._row_pair), dtype=np.int64)
        waves: List[Tuple[List[_Block], List[_Block]]] = []
        for block in blocks:
            depth = seen[block.rows]
            seen[block.rows] += 1
            low, high = int(depth.min()), int(depth.max())
            while len(waves) <= high:
                waves.append(([], []))
            kind = block.values is not None
            if low == high:
                waves[low][kind].append(block)
                continue
            for wave in range(low, high + 1):
                index = np.flatnonzero(depth == wave)
                if index.size:
                    waves[wave][kind].append(block.take(index))
        return waves

    @staticmethod
    def _joined(blocks: List[_Block]) -> _Block:
        """One short block of several, latencies padded to the widest."""
        if len(blocks) == 1:
            return blocks[0]
        lats = np.full(
            (sum(b.rows.size for b in blocks),
             max(b.lats.shape[1] for b in blocks)),
            np.inf,
        )
        at = 0
        for block in blocks:
            count, width = block.lats.shape
            lats[at:at + count, :width] = block.lats
            at += count
        return _Block(*(
            np.concatenate([getattr(b, name) for b in blocks])
            for name in _Block._fields[:6]
        ), lats)

    def _emit(
        self,
        out: Dict[int, List[ScoredWindow]],
        wave: _Block,
        index: np.ndarray,
        scores: Optional[np.ndarray] = None,
        shifted: Optional[np.ndarray] = None,
        alarm: Optional[Tuple[Symptom, str, np.ndarray]] = None,
    ) -> None:
        """Materialize the verdicts of the ``index`` windows of a short
        wave: each scored by ``scores`` / ``shifted`` when given, and an
        ``alarm`` of ``(symptom, detector, anomaly scores)`` when
        given (all three aligned with ``index``)."""
        pairs = self._row_pair
        none = repeat(None)
        for row, ws, we, sent, lost, score, shift, alarm_score in zip(
            wave.rows[index].tolist(), wave.starts[index].tolist(),
            wave.ends[index].tolist(), wave.sent[index].tolist(),
            wave.lost[index].tolist(),
            none if scores is None else scores.tolist(),
            none if shifted is None else shifted.tolist(),
            none if alarm is None else alarm[2].tolist(),
        ):
            pair = pairs[row]
            anomaly = None if alarm is None else DetectedAnomaly(
                pair=pair, detected_at=we, symptom=alarm[0],
                detector=alarm[1], score=alarm_score, window_start=ws,
            )
            out.setdefault(row, []).append(ScoredWindow(
                pair, "short", ws, we, sent, lost, anomaly, score, shift, 0,
            ))

    def _score_short_wave(
        self,
        wave: _Block,
        out: Dict[int, List[ScoredWindow]],
        flagged: np.ndarray,
        full: bool,
        watched: Optional[np.ndarray],
    ) -> None:
        """The loss rules over a wave's columns, then its windows with
        latencies to :meth:`_score_feature_windows`; a healthy window's
        verdict is built only if it is emitted (``full``, a watched
        pair, or a row that alarmed earlier in this collect)."""
        cfg = self.config
        rows, sent, lost = wave.rows, wave.sent, wave.lost
        if full:
            emit = np.ones(rows.size, dtype=bool)
        else:
            emit = flagged[rows]
            if watched is not None:
                emit |= watched[rows]
        empty = sent == 0
        rate = lost / np.where(empty, 1, sent)
        unconn = ~empty & (sent >= cfg.min_probes_for_unconnectivity) & (
            lost == sent
        )
        lossy = ~empty & ~unconn & (rate > cfg.loss_rate_threshold)
        judged = ~(empty | unconn | lossy)
        if full and empty.any():
            self._emit(out, wave, np.flatnonzero(empty))
        for mask, symptom, score in (
            (unconn, Symptom.UNCONNECTIVITY, np.ones(rows.size)),
            (lossy, Symptom.PACKET_LOSS, rate),
        ):
            if mask.any():
                index = np.flatnonzero(mask)
                flagged[rows[index]] = True
                self._emit(out, wave, index, alarm=(
                    symptom, "loss_rule", score[index]
                ))
        # All probes lost but below the loss thresholds: no feature to
        # score, still a window the analyzer may resolve an incident
        # against.
        bare = np.flatnonzero(judged & (wave.lens == 0) & emit)
        if bare.size:
            self._emit(out, wave, bare)
        stat = np.flatnonzero(judged & (wave.lens > 0))
        if stat.size:
            self._score_feature_windows(wave, stat, emit[stat], out, flagged)

    def _summaries_of(
        self, lats: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Vectorized seven-number summaries of a wave's windows.

        Matches :meth:`TimeSeries.describe` per row: sorted values,
        range-clamped mean, population std, linear-interpolated
        percentiles.  ``lats`` is ``inf`` past each row's ``lens``;
        the padded width is the longest window's.
        """
        count = lens.size
        width = int(lens.max())
        mask = np.arange(width)[None, :] < lens[:, None]
        srt = np.sort(lats[:, :width], axis=1)
        rows_ix = np.arange(count)
        mn = srt[:, 0]
        mx = srt[rows_ix, lens - 1]
        sums = np.add.reduce(np.where(mask, srt, 0.0), axis=1)
        mean = np.clip(sums / lens, mn, mx)
        diff = np.where(mask, srt - mean[:, None], 0.0)
        std = np.sqrt(np.add.reduce(diff * diff, axis=1) / lens)

        def pct(q: float) -> np.ndarray:
            rank = q * (lens - 1)
            low = np.floor(rank).astype(np.int64)
            high = np.ceil(rank).astype(np.int64)
            frac = rank - low
            return (
                srt[rows_ix, low] * (1.0 - frac)
                + srt[rows_ix, high] * frac
            )

        return np.column_stack(
            (pct(0.25), pct(0.5), pct(0.75), mn, mean, std, mx)
        )

    def _score_feature_windows(
        self,
        wave: _Block,
        stat: np.ndarray,
        emit: np.ndarray,
        out: Dict[int, List[ScoredWindow]],
        flagged: np.ndarray,
    ) -> None:
        """Score the ``stat`` windows of a wave (those with latencies)
        and admit the healthy ones to their rows' baselines.

        The median-shift gate comes first: a window alarms only if its
        median moved past ``median_shift_threshold`` *and* its LOF
        score is high, so LOF runs only on the windows a verdict reads
        — shifted ones, and those ``emit`` says are materialized.  An
        unshifted window is healthy whatever its score, so skipping
        LOF changes no admission; a row's score does not depend on
        which rows share its batch.
        """
        cfg = self.config
        rows = wave.rows[stat]
        count = rows.size
        features = self._summaries_of(wave.lats[stat], wave.lens[stat])
        counts = self._hist_n[rows]

        scores = np.full(count, np.nan)
        shifted = np.zeros(count, dtype=bool)
        scorable = np.nonzero(counts >= cfg.min_history_windows)[0]
        for n_hist in np.unique(counts[scorable]):
            group = scorable[counts[scorable] == n_hist]
            n = int(n_hist)
            if n >= 1:
                # np.median's value, by a sort instead of a partition
                # (a fraction of its cost on short rows).
                p50 = np.sort(self._hist[rows[group], :n, 1], axis=1)
                base = p50[:, n // 2] if n % 2 else (
                    p50[:, n // 2 - 1] + p50[:, n // 2]
                ) / 2
                positive = base > 0
                shift = (
                    features[group, 1] - base
                ) / np.where(positive, base, 1.0)
                shifted[group] = ~positive | (
                    shift > cfg.median_shift_threshold
                )
            else:
                shifted[group] = True
            if n < 2:
                scores[group] = 1.0
                continue
            read = group[shifted[group] | emit[group]]
            if read.size:
                scores[read] = lof_scores_fixed_batch(
                    self._hist[rows[read]][:, :n, :],
                    features[read], k=cfg.lof_k,
                )

        # Every shifted window was scored above.
        anomalous = np.zeros(count, dtype=bool)
        hit = np.flatnonzero(shifted)
        anomalous[hit] = scores[hit] > cfg.lof_threshold

        # Healthy windows join the baseline — one fancy-indexed ring
        # append for the whole wave (rows are unique within a wave).
        admit = np.nonzero(~anomalous)[0]
        if admit.size:
            rows_a = rows[admit]
            n_a = self._hist_n[rows_a]
            at_cap = n_a >= self._lookback
            slots = np.where(at_cap, self._hist_head[rows_a], n_a)
            self._hist[rows_a, slots] = features[admit]
            self._hist_n[rows_a] = np.minimum(n_a + 1, self._lookback)
            self._hist_head[rows_a] = np.where(
                at_cap,
                (self._hist_head[rows_a] + 1) % self._lookback,
                self._hist_head[rows_a],
            )

        if anomalous.any():
            alarmed = np.flatnonzero(anomalous)
            flagged[rows[alarmed]] = True
            self._emit(
                out, wave, stat[alarmed], scores[alarmed],
                shifted[alarmed], (
                    Symptom.HIGH_LATENCY, "short_term_lof",
                    scores[alarmed],
                ),
            )
        scored = np.zeros(count, dtype=bool)
        scored[scorable] = True
        healthy = emit & ~anomalous
        index = np.flatnonzero(healthy & scored)
        if index.size:
            self._emit(
                out, wave, stat[index], scores[index], shifted[index]
            )
        index = np.flatnonzero(healthy & ~scored)
        if index.size:
            self._emit(out, wave, stat[index])

    def _score_long_wave(
        self,
        blocks: List[_Block],
        out: Dict[int, List[ScoredWindow]],
        flagged: np.ndarray,
        full: bool,
    ) -> None:
        cfg = self.config
        to_fit: List[Tuple[int, list]] = []
        to_test: List[Tuple[int, float, list]] = []
        for row, end, vals in (
            entry for block in blocks for entry in zip(
                block.rows.tolist(), block.ends.tolist(), block.values
            )
        ):
            enough = len(vals) >= max(cfg.min_long_samples, 2)
            if enough and self._fit_mu[row] is not None:
                to_test.append((row, end, vals))
                continue
            if enough:
                to_fit.append((row, vals))
            if full:
                # Not Z-tested: too few samples, or it became the fit.
                out.setdefault(row, []).append(ScoredWindow(
                    self._row_pair[row], "long",
                    end - cfg.long_window_s, end, 0, 0,
                    None, None, None, len(vals),
                ))
        if to_fit:
            padded, counts = self._pad_values([v for _, v in to_fit])
            mus, sigmas = fit_lognormal_rows(padded, counts)
            for i, (row, _) in enumerate(to_fit):
                self._fit_mu[row] = float(mus[i])
                self._fit_sigma[row] = float(sigmas[i])
        if to_test:
            padded, counts = self._pad_values(
                [v for _, _, v in to_test]
            )
            mu = np.fromiter(
                (self._fit_mu[row] for row, _, _ in to_test),
                dtype=np.float64, count=len(to_test),
            )
            sigma = np.fromiter(
                (self._fit_sigma[row] for row, _, _ in to_test),
                dtype=np.float64, count=len(to_test),
            )
            z, p = z_test_rows(mu, sigma, padded, counts)
            for i, (row, end, vals) in enumerate(to_test):
                pair = self._row_pair[row]
                hit = p[i] < cfg.ztest_alpha and z[i] > 0
                if hit:
                    anomaly: Optional[DetectedAnomaly] = DetectedAnomaly(
                        pair=pair, detected_at=end,
                        symptom=Symptom.HIGH_LATENCY,
                        detector="long_term_ztest",
                        score=abs(float(z[i])),
                        window_start=end - cfg.long_window_s,
                    )
                    flagged[row] = True
                elif not full:
                    continue
                else:
                    anomaly = None
                out.setdefault(row, []).append(ScoredWindow(
                    pair, "long", end - cfg.long_window_s, end, 0, 0,
                    anomaly, float(z[i]), None, len(vals),
                ))

    @staticmethod
    def _pad_values(
        value_lists: List[list],
    ) -> Tuple[np.ndarray, np.ndarray]:
        counts = np.fromiter(
            (len(v) for v in value_lists), dtype=np.int64,
            count=len(value_lists),
        )
        width = int(counts.max())
        padded = np.full((len(value_lists), width), 1.0)
        mask = np.arange(width)[None, :] < counts[:, None]
        padded[mask] = np.concatenate(
            [np.asarray(v, dtype=np.float64) for v in value_lists]
        )
        return padded, counts
