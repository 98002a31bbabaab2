"""The detection engine: columnar storage + batched scoring.

Closing a 30-second window costs a seven-number summary, an LOF score,
a median check, and a baseline append.  Done per pair in Python, each
is a handful of small numpy calls whose interpreter overhead dominates
at thousands of pairs (docs/PERFORMANCE.md has the measurements).  Here
every pair's state lives in one *columnar* store indexed by a pair→row
table:

* **Open-window columns** — one ``(pairs × samples)`` latency matrix
  plus window-start/sent/lost/consecutive-loss arrays; a round's
  probes are scattered into their rows in a few numpy calls
  (:meth:`ColumnarDetectionEngine.ingest_batch`; one probe is a batch of
  one row), elapsed windows — found by a mask — closing into a per-row
  pending queue.
* **Ring-buffered LOF history** — a ``(pairs × lookback × 7)`` feature
  matrix with per-row fill counts and eviction heads; the short-term
  baseline for *every* pair lives in one array.
* **Long-term aggregates** — delivered times and latencies in
  fixed-size float64 blocks (``[sample, row]``) consumed into 30-minute
  windows, with the log-normal fits stored as ``mu``/``sigma`` columns.

Scoring is deferred to :meth:`ColumnarDetectionEngine.collect`, which
drains the pending queues in *waves* (the i-th pending window of every
row), so the summary statistics, LOF (:func:`lof_scores_fixed_batch`),
median-shift checks, baseline appends, and long-term Z-tests
(:func:`z_test_rows`) each run as a few numpy calls over all pairs at
once instead of per-pair Python loops.  Per-row window ordering — the
thing detector state depends on — is preserved because wave w+1 never
runs before every row's wave-w window has been scored and (if healthy)
admitted to the baseline.

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
#: Pending-entry kind tags (index 0 of the entry tuple).
_SHORT = 0
_LONG = 1


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
        #: Each pair as given -> its canonical pair: a pure function of
        #: the pair, so it is computed once however the batches rotate.
        self._canonical: Dict[object, ProbePair] = {}

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

        # Per-row pending windows awaiting a scoring pass, in the order
        # they closed.
        self._pending: List[List[tuple]] = []

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
            self._pending.append([])
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
        self._pending[row] = []
        self._free.append(row)
        self._layout += 1

    def _locate(self, pairs: List[object]) -> tuple:
        """``(canonical pairs, rows, distinct)`` of a pair sequence:
        each pair's row (-1 while unmonitored) and whether no pair
        repeats.  Kept for the next batch over the same sequence, which
        then costs one list comparison instead of a canonical sort and a
        hash per probe.  A pair is canonicalized the first time any
        batch holds it."""
        located = self._located
        if (
            located is not None and located[0] == self._layout
            and located[1] == pairs
        ):
            return located[2:]
        memo = self._canonical
        canonical = list(map(memo.get, pairs))
        for i in [i for i, pair in enumerate(canonical) if pair is None]:
            canonical[i] = memo[pairs[i]] = ProbePair.canonical(
                *endpoints_of(pairs[i])
            )
        rows = list(map(self._rows.get, canonical, repeat(-1)))
        distinct = len({
            pair if row < 0 else row
            for pair, row in zip(canonical, rows)
        }) == len(rows)
        self._located = (
            self._layout, list(pairs), canonical,
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
        """Close, into the pending queues, every window of ``rows`` that
        ended by the row's ``until`` (the first with what the row
        collected, any further ones empty)."""
        short_s = self._short_s
        starts = []
        for row, ws, sent, lost, n, t in zip(
            rows.tolist(), self._ws[rows].tolist(),
            self._sent[rows].tolist(), self._lost[rows].tolist(),
            self._lat_n[rows].tolist(), until.tolist(),
        ):
            lats = self._lat[row, :n].copy() if n else None
            pending = self._pending[row]
            while t >= ws + short_s:
                pending.append(
                    (_SHORT, ws, ws + short_s, sent, lost, lats)
                )
                ws, sent, lost, lats = ws + short_s, 0, 0, None
            starts.append(ws)
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
        self._pending[row].append(
            (_SHORT, window_start, window_end, sent, lost, latencies)
        )
        return row

    def queue_elapsed_longs(self, rows, now) -> None:
        """Move the 30-minute aggregates of ``rows`` (one row or an
        array) that elapsed by ``now`` (one time, or one per row) into
        the pending queues."""
        rows = np.atleast_1d(rows)
        now = np.broadcast_to(now, rows.shape)
        long_s = self._long_s
        due = now >= self._long_start[rows] + long_s
        if not due.any():
            return
        size = self._LONG_BLOCK
        for row, t in zip(rows[due].tolist(), now[due].tolist()):
            start = float(self._long_start[row])
            n = int(self._long_n[row])
            held = np.concatenate([
                block[:, :, row]
                for block in self._long_blocks[:-(-n // size)]
            ] or [np.empty((2, 0))], axis=1)[:, :n]
            lo = 0
            while t >= start + long_s:
                end = start + long_s
                hi = lo + int(
                    np.searchsorted(held[0, lo:], end, side="left")
                )
                self._pending[row].append((_LONG, end, held[1, lo:hi]))
                lo, start = hi, end
            # What is left moves down to the row's first samples.
            for b in range(-(-(n - lo) // size)):
                part = held[:, lo + b * size:lo + (b + 1) * size]
                self._long_blocks[b][:, :part.shape[1], row] = part
            self._long_n[row] = n - lo
            if lo == n:
                self._long_last[row] = np.nan
            self._long_start[row] = start
        del self._long_blocks[-(-int(self._long_n.max()) // size):]

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
        return any(self._pending[r] for r in self._rows.values())

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
        analyzer's bookkeeping actually inspects them.
        """
        active = [r for r in self._rows.values() if self._pending[r]]
        return self._collect_rows(active, full, watch)

    def collect_rows(
        self,
        rows: Sequence[int],
        full: bool = False,
        watch: Optional[Dict] = None,
    ) -> List[ScoredWindow]:
        """Score the pending windows of specific rows (fast-path drain)."""
        chosen = [r for r in rows if self._pending[r]]
        return self._collect_rows(chosen, full, watch)

    def _collect_rows(
        self, active: List[int], full: bool, watch: Optional[Dict]
    ) -> List[ScoredWindow]:
        if not active:
            return []
        watch = watch if watch is not None else {}
        out: Dict[int, List[ScoredWindow]] = {r: [] for r in active}
        flagged: set = set()  # rows that alarmed during this collect
        ptr = dict.fromkeys(active, 0)
        live = active
        while live:
            shorts: List[Tuple[int, tuple]] = []
            longs: List[Tuple[int, tuple]] = []
            for row in live:
                entry = self._pending[row][ptr[row]]
                ptr[row] += 1
                if entry[0] == _SHORT:
                    shorts.append((row, entry))
                else:
                    longs.append((row, entry))
            if shorts:
                self._score_short_wave(shorts, out, flagged, full, watch)
            if longs:
                self._score_long_wave(longs, out, flagged, full)
            live = [r for r in live if ptr[r] < len(self._pending[r])]
        for row in active:
            self._pending[row].clear()
        verdicts: List[ScoredWindow] = []
        for row in active:
            verdicts.extend(out[row])
        return verdicts

    def _emit_healthy(
        self, row: int, full: bool, watch: Dict, flagged: set
    ) -> bool:
        """Whether a healthy window's verdict is worth materializing."""
        return (
            full
            or row in flagged
            or self._row_pair[row] in watch
        )

    def _score_short_wave(
        self,
        entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
        watch: Dict,
    ) -> None:
        cfg = self.config
        min_unconn = cfg.min_probes_for_unconnectivity
        loss_thr = cfg.loss_rate_threshold
        stat_entries: List[Tuple[int, tuple]] = []
        for row, entry in entries:
            _, ws, we, sent, lost, lats = entry
            pair = self._row_pair[row]
            if sent == 0:
                if full:
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, 0, 0, None, None, None, 0
                    ))
                continue
            if sent >= min_unconn and lost == sent:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.UNCONNECTIVITY, detector="loss_rule",
                    score=1.0, window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    None, None, 0,
                ))
                continue
            rate = lost / sent
            if rate > loss_thr:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.PACKET_LOSS, detector="loss_rule",
                    score=rate, window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    None, None, 0,
                ))
                continue
            if lats is None:
                # All probes lost but below the loss thresholds: no
                # feature to score, still a window the analyzer may
                # resolve an incident against.
                if self._emit_healthy(row, full, watch, flagged):
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, sent, lost, None,
                        None, None, 0,
                    ))
                continue
            stat_entries.append((row, entry))
        if stat_entries:
            self._score_feature_windows(
                stat_entries, out, flagged, full, watch
            )

    def _summaries_of(
        self, stat_entries: List[Tuple[int, tuple]]
    ) -> np.ndarray:
        """Vectorized seven-number summaries of a wave's windows.

        Matches :meth:`TimeSeries.describe` per row: sorted values,
        range-clamped mean, population std, linear-interpolated
        percentiles.
        """
        count = len(stat_entries)
        lens = np.fromiter(
            (entry[5].shape[0] for _, entry in stat_entries),
            dtype=np.int64, count=count,
        )
        width = int(lens.max())
        mask = np.arange(width)[None, :] < lens[:, None]
        padded = np.full((count, width), np.inf)
        padded[mask] = np.concatenate(
            [entry[5] for _, entry in stat_entries]
        )
        srt = np.sort(padded, axis=1)
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
        stat_entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
        watch: Dict,
    ) -> None:
        cfg = self.config
        count = len(stat_entries)
        features = self._summaries_of(stat_entries)
        row_arr = np.fromiter(
            (row for row, _ in stat_entries), dtype=np.int64, count=count
        )
        counts = self._hist_n[row_arr]

        scores = np.full(count, np.nan)
        shifted = np.zeros(count, dtype=bool)
        scorable = np.nonzero(counts >= cfg.min_history_windows)[0]
        for n_hist in np.unique(counts[scorable]):
            group = scorable[counts[scorable] == n_hist]
            rows_g = row_arr[group]
            n = int(n_hist)
            if n < 2:
                scores[group] = 1.0
            else:
                scores[group] = lof_scores_fixed_batch(
                    self._hist[rows_g][:, :n, :],
                    features[group], k=cfg.lof_k,
                )
            if n >= 1:
                base = np.median(self._hist[rows_g][:, :n, 1], axis=1)
                positive = base > 0
                shift = (
                    features[group, 1] - base
                ) / np.where(positive, base, 1.0)
                shifted[group] = ~positive | (
                    shift > cfg.median_shift_threshold
                )
            else:
                shifted[group] = True

        anomalous = np.zeros(count, dtype=bool)
        anomalous[scorable] = (
            (scores[scorable] > cfg.lof_threshold) & shifted[scorable]
        )

        # Healthy windows join the baseline — one fancy-indexed ring
        # append for the whole wave (rows are unique within a wave).
        admit = np.nonzero(~anomalous)[0]
        if admit.size:
            rows_a = row_arr[admit]
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

        scored_mask = np.zeros(count, dtype=bool)
        scored_mask[scorable] = True
        for i, (row, entry) in enumerate(stat_entries):
            _, ws, we, sent, lost, lats = entry
            pair = self._row_pair[row]
            if anomalous[i]:
                anomaly = DetectedAnomaly(
                    pair=pair, detected_at=we,
                    symptom=Symptom.HIGH_LATENCY,
                    detector="short_term_lof",
                    score=float(scores[i]), window_start=ws,
                )
                flagged.add(row)
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, anomaly,
                    float(scores[i]), bool(shifted[i]), 0,
                ))
            elif scored_mask[i]:
                if self._emit_healthy(row, full, watch, flagged):
                    out[row].append(ScoredWindow(
                        pair, "short", ws, we, sent, lost, None,
                        float(scores[i]), bool(shifted[i]), 0,
                    ))
            elif self._emit_healthy(row, full, watch, flagged):
                out[row].append(ScoredWindow(
                    pair, "short", ws, we, sent, lost, None,
                    None, None, 0,
                ))

    def _score_long_wave(
        self,
        entries: List[Tuple[int, tuple]],
        out: Dict[int, List[ScoredWindow]],
        flagged: set,
        full: bool,
    ) -> None:
        cfg = self.config
        to_fit: List[Tuple[int, list]] = []
        to_test: List[Tuple[int, float, list]] = []
        for row, entry in entries:
            _, end, vals = entry
            enough = len(vals) >= max(cfg.min_long_samples, 2)
            if enough and self._fit_mu[row] is not None:
                to_test.append((row, end, vals))
                continue
            if enough:
                to_fit.append((row, vals))
            if full:
                # Not Z-tested: too few samples, or it became the fit.
                out[row].append(ScoredWindow(
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
                    flagged.add(row)
                elif not full:
                    continue
                else:
                    anomaly = None
                out[row].append(ScoredWindow(
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
