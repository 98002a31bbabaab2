"""Counter-based probe randomness for partition-independent rounds.

The fabric's default sampling draws each round's uniforms from one
sequential generator stream, so a probe's noise depends on *how many
probes were drawn before it* — fine for a single monitoring loop,
fatal for a sharded one, where the same pair may be probed by
different shards (or replayed after a failover) in a different global
order.

:class:`PairwiseDrawSource` replaces the stream with a *counter-based*
generator: the five uniforms of one probe are a pure function of
``(seed, src, dst, round time, salt, draw index)``, computed with a
splitmix64-style hash (vectorized over the batch).  Probe outcomes
then depend only on the probe itself, never on batch composition,
shard assignment, or execution order — which is exactly the invariant
the sharded monitoring plane's equivalence gate rests on (see
``docs/SCALING.md``).

The default sequential path is untouched: a fabric uses this source
only after an explicit
:meth:`~repro.network.fabric.DataPlaneFabric.use_pairwise_draws`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

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
    z = (state + _GOLDEN).astype(_U64, copy=False)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


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
    """Keyed uniform draws: one five-uniform block per (pair, time).

    Stateless by construction — two sources with the same seed return
    bit-identical blocks for the same probes regardless of call order,
    batch grouping, or which process they live in.  The per-pair key
    hash is memoized (pure cache, no behavioral state).
    """

    def __init__(self, seed: int, draws_per_probe: int = 5) -> None:
        self.seed = int(seed)
        self.draws_per_probe = int(draws_per_probe)
        self._seed_key = _stable_hash(f"pairwise-draws:{self.seed}")
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
        endpoints: Sequence[Tuple[EndpointId, EndpointId]],
        at: float,
        salt: int,
    ) -> np.ndarray:
        """The ``(len(endpoints), draws_per_probe)`` uniform block.

        Row *i* is the block for probe ``endpoints[i]`` at time ``at``
        — the same row the probe would get in any other batch.
        """
        return self.uniforms_of(self.keys_of(endpoints), at, salt)

    def uniforms_of(
        self, keys: np.ndarray, at: float, salt: int
    ) -> np.ndarray:
        """:meth:`uniforms` for pairs given by their :meth:`keys_of`."""
        # Fold time and salt into the per-pair key.  float64 bit views
        # are exact, so any representable probe time keys cleanly.
        time_bits = int(np.float64(at).view(_U64))
        round_key = _scalar_mix64(
            self._seed_key ^ time_bits ^ _scalar_mix64(salt & _MASK64)
        )
        base = _mix64(keys ^ _U64(round_key))
        blocks: List[np.ndarray] = []
        for column in range(self.draws_per_probe):
            offset = (column * 0x9E3779B97F4A7C15) & _MASK64
            bits = _mix64(base + _U64(offset))
            blocks.append((bits >> _U64(11)).astype(np.float64))
        return np.stack(blocks, axis=1) * _TO_UNIT
