"""Probe packets and probing results.

A probe is one RDMA echo between two endpoints (the unit the agents
execute).  Its result carries everything the analyzer and localizer need:
the measured round-trip latency (or loss), the overlay forwarding trace,
and the underlay path the ECMP hash picked.

Probes travel in rounds, so the unit everywhere one travels is the
:class:`ProbeBatch`: the round's pairs plus one column per measured
quantity.  The fabric fills the columns, the analyzer scatters them into
its windows and the bus codec writes them out, all without one Python
object per probe; a :class:`ProbeResult` is built only for a reader that
indexes the batch.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.identifiers import EndpointId, LinkId, RnicId
from repro.cluster.overlay import OverlayTrace
from repro.cluster.topology import UnderlayPath
from repro.network.draws import endpoint_text
from repro.sim.rng import _stable_hash

__all__ = ["ProbeBatch", "ProbeResult", "endpoints_of", "flow_hash"]


@lru_cache(maxsize=1 << 16)
def flow_hash(src: EndpointId, dst: EndpointId) -> int:
    """A stable 64-bit flow hash used for ECMP path selection.

    RDMA connections pin to one ECMP path for their lifetime, so the hash
    depends only on the endpoint pair: FNV-1a over ``f"{src}|{dst}|0"``,
    continued from the source's precomputed state
    (:func:`~repro.network.draws.endpoint_text`).  Pure, so memoised:
    every traceroute of a pair asks for the same hash again.
    """
    return _stable_hash(f"|{endpoint_text(dst)[0]}|0", endpoint_text(src)[1])


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one probe between two endpoints."""

    src: EndpointId
    dst: EndpointId
    sent_at: float
    lost: bool
    latency_us: Optional[float] = None
    reason: str = ""
    software_path: bool = False
    src_rnic: Optional[RnicId] = None
    dst_rnic: Optional[RnicId] = None
    underlay_path: Optional[UnderlayPath] = None
    overlay_trace: Optional[OverlayTrace] = None

    def __post_init__(self) -> None:
        if not self.lost and self.latency_us is None:
            raise ValueError("a delivered probe must carry a latency")
        if self.lost and self.latency_us is not None:
            raise ValueError("a lost probe cannot carry a latency")

    @property
    def ok(self) -> bool:
        """Whether the probe completed (regardless of how slowly)."""
        return not self.lost

    def underlay_links(self) -> Tuple[LinkId, ...]:
        """Physical links the probe traversed (empty when lost pre-fabric)."""
        if self.underlay_path is None:
            return ()
        return self.underlay_path.links


def endpoints_of(pair: object) -> Tuple[EndpointId, EndpointId]:
    """``(src, dst)`` of a probe pair given either as a 2-tuple or as an
    object with ``src``/``dst`` attributes (e.g.
    :class:`~repro.core.pinglist.ProbePair`)."""
    if hasattr(pair, "src"):
        return pair.src, pair.dst  # type: ignore[attr-defined]
    src, dst = pair  # type: ignore[misc]
    return src, dst


class ProbeBatch(SequenceABC):
    """The probes of one batch, as parallel columns over its pairs.

    ``pairs`` is the sequence the sender was given; row *i* of every
    column describes the probe of ``pairs[i]``: ``sent_at`` (float64),
    ``lost`` (bool), ``latency_us`` (float64, NaN where lost) and
    ``software_path`` (bool, False where lost).  A batch the fabric
    produced also carries, per row, the resolution the probe was
    answered from, the index of the route it took among the
    resolution's ``routes`` (-1 when it never reached the underlay),
    the reason it was lost and the pair's draw key
    (:meth:`~repro.network.draws.PairwiseDrawSource.keys_of`, which
    keys the monitor plane's draws over the batch); a batch decoded
    from a recording carries only what the analyzer reads.

    It is a ``Sequence[ProbeResult]``: ``len``, iteration, indexing and
    ``==`` against any sequence of results behave as the list of
    :class:`ProbeResult` would, each row built on demand; a slice is a
    batch over views of the same columns, and :meth:`take` selects rows
    of several batches.
    """

    __slots__ = (
        "pairs", "sent_at", "lost", "latency_us", "software_path",
        "resolutions", "route", "reasons", "keys",
    )

    def __init__(
        self,
        pairs: Sequence[object],
        sent_at: np.ndarray,
        lost: np.ndarray,
        latency_us: np.ndarray,
        software_path: Optional[np.ndarray] = None,
        resolutions: Optional[Sequence[object]] = None,
        route: Optional[np.ndarray] = None,
        reasons: Optional[Sequence[str]] = None,
        keys: Optional[np.ndarray] = None,
    ) -> None:
        self.pairs = pairs
        self.sent_at = sent_at
        self.lost = lost
        self.latency_us = latency_us
        self.software_path = software_path
        self.resolutions = resolutions
        self.route = route
        self.reasons = reasons
        self.keys = keys

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[ProbeResult, "ProbeBatch"]:
        if isinstance(index, slice):  # views of the same columns
            return ProbeBatch(*(
                None if column is None else column[index]
                for column in map(self.__getattribute__, self.__slots__)
            ))
        index = range(len(self.pairs))[index]  # negative / out of range
        src, dst = endpoints_of(self.pairs[index])
        lost = bool(self.lost[index])
        how = {}
        if self.resolutions is not None:  # the fabric's own batch
            res = self.resolutions[index]
            route = int(self.route[index])
            how = dict(
                reason=self.reasons[index],
                software_path=bool(self.software_path[index]),
                src_rnic=res.trace.src_rnic, dst_rnic=res.trace.dst_rnic,
                underlay_path=None if route < 0 else res.routes[route].path,
                overlay_trace=res.trace,
            )
        return ProbeResult(
            src=src, dst=dst, sent_at=float(self.sent_at[index]),
            lost=lost,
            latency_us=None if lost else float(self.latency_us[index]),
            **how,
        )

    @staticmethod
    def take(
        batches: Sequence["ProbeBatch"], rows: np.ndarray
    ) -> "ProbeBatch":
        """The batch whose row *i* is row ``rows[i]`` of ``batches`` laid
        end to end: every column selected, none rebuilt row by row (a
        column some batch lacks is left out)."""
        rows = np.asarray(rows, dtype=np.intp)

        def pick(name):
            columns = [getattr(batch, name) for batch in batches]
            if any(column is None for column in columns):
                return None
            if name not in ("pairs", "resolutions", "reasons"):  # arrays
                return np.concatenate(columns)[rows]
            joined = list(chain.from_iterable(columns))
            return list(map(joined.__getitem__, rows.tolist()))

        return ProbeBatch(**{
            name: pick(name) for name in ProbeBatch.__slots__
        })

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Sequence[ProbeResult]) -> List[ProbeResult]:
        return list(self) + list(other)

    def __radd__(self, other: Sequence[ProbeResult]) -> List[ProbeResult]:
        return list(other) + list(self)

    def __repr__(self) -> str:
        return (
            f"ProbeBatch({len(self)} probes, "
            f"{int(np.count_nonzero(self.lost))} lost)"
        )
