"""Seeded random-number streams for reproducible simulations.

Every stochastic subsystem (latency sampling, fault timing, workload
generation, ...) draws from its own named stream so that adding randomness
to one subsystem never perturbs another.  Streams are derived from a single
root seed with ``numpy.random.SeedSequence.spawn``-style key hashing, which
keeps runs reproducible across processes and platforms.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

import numpy as np

__all__ = ["RngRegistry", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 63-bit child seed for a named stream."""
    seq = np.random.SeedSequence([root_seed, _stable_hash(name)])
    return int(seq.generate_state(1, dtype=np.uint64)[0] & 0x7FFF_FFFF_FFFF_FFFF)


def _stable_hash(name: str, acc: int = 0xCBF29CE484222325) -> int:
    """A platform-stable string hash (FNV-1a, 64 bit).

    ``acc`` is the state to continue from (the offset basis by default),
    so ``_stable_hash(b, _stable_hash(a)) == _stable_hash(a + b)``.
    """
    for byte in name.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFF_FFFF_FFFF_FFFF
    return acc


class RngRegistry:
    """A registry of independently-seeded random generators.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("latency")
    >>> b = rngs.stream("latency")
    >>> a is b
    True
    >>> rngs.stream("faults") is a
    False
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                derive_seed(self._seed, name)
            )
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """Create a child registry whose streams are independent of ours."""
        return RngRegistry(derive_seed(self._seed, f"fork:{name}"))

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(sorted(self._streams))

    def reset(self, name: Optional[str] = None) -> None:
        """Re-seed one stream (or all streams when ``name`` is ``None``)."""
        if name is None:
            self._streams.clear()
        else:
            self._streams.pop(name, None)
