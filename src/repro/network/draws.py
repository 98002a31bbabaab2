"""Counter-based probe randomness: a probe's draws are its own.

In the paper every sidecar agent probes its own targets on its own
schedule, so a probe's outcome must not depend on how many probes some
other agent sent first.  :class:`PairwiseDrawSource` is the fabric's
only source of probe uniforms: the block of one probe is a pure
function of ``(seed, src, dst, send time, draw index)``, computed
with a splitmix64-style hash (vectorized over the batch).  Probe
outcomes therefore depend only on the probe itself, never on batch
composition, agent order, shard assignment, or execution order — the
invariant every equivalence gate rests on (see ``docs/SCALING.md``).

:func:`keyed_uniform` / :func:`keyed_uniforms` are the scalar and
string-keyed siblings the monitor plane uses (report fates, backoff
jitter, telemetry loss, fleet churn).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.cluster.identifiers import EndpointId
from repro.sim.rng import _stable_hash

__all__ = [
    "PairwiseDrawSource",
    "endpoint_text",
    "keyed_uniform",
    "keyed_uniforms",
]

_U64 = np.uint64
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
#: 2**-53: maps the top 53 bits of a uint64 onto [0, 1).
_TO_UNIT = float(2.0 ** -53)
#: (c + 1) * golden for block column c (uint64 wraparound).
_COLUMNS = np.arange(1, 9, dtype=_U64) * _GOLDEN


@lru_cache(maxsize=1 << 16)
def endpoint_text(endpoint: EndpointId) -> Tuple[str, int]:
    """An endpoint's name, and the FNV-1a state after hashing it.

    Every keyed string over a probe pair (the ECMP flow hash, the
    pairwise draw key) starts with the source's name, so hashing a pair
    continues from the source's state over the rest of the string
    alone.  Pure, so memoised per endpoint.
    """
    name = str(endpoint)
    return name, _stable_hash(name)


def _scalar_mix64(value: int) -> int:
    """The splitmix64 finalizer over a plain python int (no numpy
    scalar arithmetic: numpy warns on scalar uint64 wraparound)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64(state: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise over a uint64 array."""
    return _finish64(state + _GOLDEN)


def _finish64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer after its ``+ golden`` step, in place
    over the uint64 array ``z``, which it returns."""
    scratch = np.empty_like(z)
    for shift, multiplier in ((_U64(30), _MIX1), (_U64(27), _MIX2)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= multiplier
    np.right_shift(z, _U64(31), out=scratch)
    z ^= scratch
    return z


def keyed_uniform(seed: int, key: str, salt: int = 0) -> float:
    """One uniform in [0, 1) as a pure function of ``(seed, key, salt)``.

    The scalar sibling of :meth:`PairwiseDrawSource.uniforms`: the same
    inputs return the same draw in any process, at any call order.  The
    chaos injector and the retry/backoff jitter use it so that monitor-
    plane decisions never depend on execution order — the same property
    the probing plane gets from :class:`PairwiseDrawSource`.
    """
    state = _stable_hash(f"keyed:{seed}:{key}") ^ _scalar_mix64(
        salt & _MASK64
    )
    return (_scalar_mix64(state) >> 11) * _TO_UNIT


def keyed_uniforms(
    seed: int, key: str, count: int, salt: int = 0
) -> np.ndarray:
    """``count`` keyed uniforms, vectorized (see :func:`keyed_uniform`).

    Draw *i* equals ``keyed_uniform(seed, key, salt + i)`` in spirit but
    is computed in one numpy pass; the block is a pure function of the
    arguments, independent of batch size elsewhere.
    """
    base = _U64(
        _stable_hash(f"keyed:{seed}:{key}") ^ _scalar_mix64(salt & _MASK64)
    )
    offsets = (np.arange(count, dtype=np.uint64) * _GOLDEN).astype(_U64)
    bits = _mix64(base + offsets)
    return (bits >> _U64(11)).astype(np.float64) * _TO_UNIT


class PairwiseDrawSource:
    """Keyed uniform draws: one block of uniforms per (pair, time).

    Stateless by construction — two sources with the same seed return
    bit-identical blocks for the same probes regardless of call order,
    batch grouping, or which process they live in.  Column *c* of a
    block does not depend on which other columns are drawn, so a caller
    draws only the columns it reads.  The per-pair key hash is memoized
    (pure cache, no behavioral state).
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        # ``_scalar_mix64(0)`` is part of the key: it pins every block.
        self._seed_key = _U64(
            _stable_hash(f"pairwise-draws:{self.seed}") ^ _scalar_mix64(0)
        )
        self._pair_keys: Dict[Tuple[EndpointId, EndpointId], _U64] = {}

    def _pair_key(self, src: EndpointId, dst: EndpointId) -> _U64:
        key = self._pair_keys.get((src, dst))
        if key is None:
            key = _U64(_stable_hash(
                f"->{endpoint_text(dst)[0]}", endpoint_text(src)[1]
            ))
            self._pair_keys[(src, dst)] = key
        return key

    def keys_of(
        self, endpoints: Sequence[Tuple[EndpointId, EndpointId]]
    ) -> np.ndarray:
        """The per-pair key column of ``endpoints`` — a pure function of
        the pairs (not of the seed, the time or the block width), so a
        caller that probes the same pairs again may keep it."""
        keys = np.empty(len(endpoints), dtype=_U64)
        for i, (src, dst) in enumerate(endpoints):
            keys[i] = self._pair_key(src, dst)
        return keys

    def uniforms(
        self,
        keys: np.ndarray,
        at: Union[float, np.ndarray],
        columns: Sequence[int] = range(5),
    ) -> np.ndarray:
        """The ``(len(keys), len(columns))`` uniforms of the pairs whose
        :meth:`keys_of` are ``keys``, sent at ``at`` (one time, or one
        per row).

        Row *i* is probe *i*'s block — the same row the probe would get
        in any other batch — and column *j* is block column
        ``columns[j]``, whichever other columns are drawn.
        """
        # Fold time into the per-pair key.  float64 bit views are
        # exact, so any representable probe time keys cleanly.
        times = np.array(at, np.float64, ndmin=1).view(_U64)
        round_key = _mix64(times ^ self._seed_key)
        # Column c is splitmix64(base + c * golden): the finalizer's own
        # "+ golden" folds into the column offset, and the rest of it
        # runs in place over the whole block, laid out column by column
        # (a column is contiguous; the answer is its transposed view).
        bits = _finish64(
            _COLUMNS[list(columns), None] + _mix64(keys ^ round_key)
        )
        bits >>= _U64(11)
        uniforms = bits.astype(np.float64)
        uniforms *= _TO_UNIT
        return uniforms.T
