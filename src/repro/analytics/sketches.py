"""Probabilistic sketches for high-velocity streams.

The "velocity" leg of the 3Vs: these structures summarize unbounded
streams in bounded memory with quantified error —

- :class:`CountMinSketch` — frequency estimates, one-sided error
- :class:`HyperLogLog` — cardinality estimation

All are deterministic given their construction parameters (hash seeds
are fixed), so tests can assert exact behaviour.  The ``add_many``
batch paths hash whole key arrays with a numpy FNV-1a kernel that is
bit-identical to the scalar ``_hash64`` — per-item and batched inserts
produce the same tables/registers.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..util.errors import ConfigError

__all__ = ["CountMinSketch", "HyperLogLog"]


def _hash64(data: str, seed: int) -> int:
    """Seeded FNV-1a 64-bit hash (stable across processes)."""
    h = (1469598103934665603 ^ (seed * 0x9E3779B97F4A7C15)) % (1 << 64)
    for byte in data.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) % (1 << 64)
    # Final avalanche (xorshift-multiply) to decorrelate seeds.
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) % (1 << 64)
    h ^= h >> 33
    return h


_FNV_PRIME = np.uint64(1099511628211)
_AVALANCHE = np.uint64(0xFF51AFD7ED558CCD)
_SHIFT33 = np.uint64(33)


def _hash64_many(items: Sequence[str], seed: int) -> np.ndarray:
    """Vectorized seeded FNV-1a: hash every string at once.

    Strings are encoded into a padded byte matrix; the byte-sequential
    FNV fold then runs *across items* one byte-column at a time, so the
    Python-level loop is O(longest key) instead of O(total bytes).
    Bit-identical to :func:`_hash64` (uint64 wraparound arithmetic).
    """
    n = len(items)
    init = (1469598103934665603 ^ (seed * 0x9E3779B97F4A7C15)) % (1 << 64)
    h = np.full(n, init, dtype=np.uint64)
    if n == 0:
        return h
    encoded = [s.encode("utf-8") for s in items]
    lengths = np.fromiter((len(b) for b in encoded), dtype=np.int64, count=n)
    max_len = int(lengths.max())
    buf = np.zeros((n, max_len), dtype=np.uint8)
    for i, b in enumerate(encoded):
        if b:
            buf[i, :len(b)] = np.frombuffer(b, dtype=np.uint8)
    for j in range(max_len):
        active = lengths > j
        if active.all():
            h = (h ^ buf[:, j].astype(np.uint64)) * _FNV_PRIME
        else:
            h[active] = ((h[active] ^ buf[active, j].astype(np.uint64))
                         * _FNV_PRIME)
    h ^= h >> _SHIFT33
    h *= _AVALANCHE
    h ^= h >> _SHIFT33
    return h


def _bit_length64(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for uint64 arrays (exact — no float
    round-trip, which loses precision above 2**53)."""
    bits = np.zeros(values.shape, dtype=np.int64)
    v = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= np.uint64(1 << shift)
        bits[mask] += shift
        v[mask] >>= np.uint64(shift)
    bits += (v > 0)
    return bits


class CountMinSketch:
    """Frequency estimation: estimate >= true, overestimate bounded.

    The width derives from ``epsilon``: error <= epsilon * N with
    probability 1 - delta, where delta = 0.01 sets the depth,
    ceil(ln(1 / delta)) = 5 rows.
    """

    depth = 5

    def __init__(self, epsilon: float = 0.001) -> None:
        if not 0 < epsilon < 1:
            raise ConfigError("epsilon must be in (0, 1)")
        self.width = max(1, math.ceil(math.e / epsilon))
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        self.total = 0

    def _indices(self, item: str) -> list[int]:
        return [_hash64(item, row) % self.width for row in range(self.depth)]

    def add(self, item: str, count: int = 1) -> None:
        if count < 0:
            raise ConfigError("count must be non-negative")
        for row, col in enumerate(self._indices(item)):
            self._table[row, col] += count
        self.total += count

    def add_many(self, items: Iterable[str]) -> None:
        """Batch insert, one count each: one vectorized hash pass per
        sketch row.

        Equivalent to ``add`` in a loop (additions commute, duplicate
        columns are handled by the unbuffered ``np.add.at``).
        """
        items = list(items)
        if not items:
            return
        width = np.uint64(self.width)
        for row in range(self.depth):
            cols = (_hash64_many(items, row) % width).astype(np.int64)
            np.add.at(self._table[row], cols, 1)
        self.total += len(items)

    def estimate(self, item: str) -> int:
        return int(min(self._table[row, col]
                       for row, col in enumerate(self._indices(item))))

    def merge(self, other: "CountMinSketch") -> None:
        if (self.width, self.depth) != (other.width, other.depth):
            raise ConfigError("cannot merge sketches of different shape")
        self._table += other._table
        self.total += other.total


class HyperLogLog:
    """Cardinality estimation with ~1.04/sqrt(2^p) relative error, at
    ``precision`` p = 12 (4 096 registers, ~1.6 %)."""

    precision = 12
    m = 1 << precision
    _alpha = 0.7213 / (1 + 1.079 / m)

    def __init__(self) -> None:
        self._registers = np.zeros(self.m, dtype=np.uint8)

    def add(self, item: str) -> None:
        h = _hash64(item, 0)
        register = h >> (64 - self.precision)
        remainder = h & ((1 << (64 - self.precision)) - 1)
        # rho = position of leftmost 1-bit in the remainder
        rho = (64 - self.precision) - remainder.bit_length() + 1
        if rho > self._registers[register]:
            self._registers[register] = rho

    def add_many(self, items: Iterable[str]) -> None:
        """Batch insert: vectorized hash + leading-zero count; duplicate
        registers resolve through the unbuffered ``np.maximum.at``."""
        items = list(items)
        if not items:
            return
        h = _hash64_many(items, 0)
        tail_bits = 64 - self.precision
        registers = (h >> np.uint64(tail_bits)).astype(np.int64)
        remainders = h & np.uint64((1 << tail_bits) - 1)
        rho = (tail_bits - _bit_length64(remainders) + 1).astype(np.uint8)
        np.maximum.at(self._registers, registers, rho)

    def estimate(self) -> float:
        registers = self._registers.astype(np.float64)
        raw = self._alpha * self.m ** 2 / np.sum(2.0 ** -registers)
        zeros = int(np.sum(self._registers == 0))
        if raw <= 2.5 * self.m and zeros > 0:
            return self.m * math.log(self.m / zeros)  # linear counting
        return float(raw)

    def merge(self, other: "HyperLogLog") -> None:
        np.maximum(self._registers, other._registers, out=self._registers)
