"""Domain types shared by every module: bit strings on the hypercube,
subcube conditions, sampler interfaces, and deterministic RNG streams.

A sample is an assignment to the n free coordinates of a Boolean hypercube,
represented as a plain tuple of 0/1 ints.  A condition fixes a subset of
coordinates; the empty condition is the full cube.  Samplers draw strings
consistent with a condition, distributions report exact point masses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DuplicateCoordinate, IndexOutOfRange, InvalidParameter

Bits = tuple[int, ...]


def bits_to_str(x: Bits) -> str:
    return "".join(str(b) for b in x)


def bits_from_str(s: str) -> Bits:
    return tuple(int(c) for c in s)


@dataclass(frozen=True)
class Condition:
    """A partial assignment of coordinates; hashable, usable as a cache key.

    ``fixed`` is a tuple of (index, bit) pairs sorted by index, with no
    index repeated.  The empty tuple denotes the full cube.
    """

    fixed: tuple[tuple[int, int], ...] = ()

    def bit_at(self, index: int) -> Optional[int]:
        for i, b in self.fixed:
            if i == index:
                return b
        return None

    def is_free(self, index: int) -> bool:
        return self.bit_at(index) is None

    def agrees(self, x: Sequence[int]) -> bool:
        return all(x[i] == b for i, b in self.fixed)

    def __len__(self) -> int:
        return len(self.fixed)


FULL_CUBE = Condition()


def make_condition(pairs: Iterable[tuple[int, int]], n: int) -> Condition:
    """Build a condition from (index, bit) pairs.

    Raises IndexOutOfRange for an index outside [0, n) and
    DuplicateCoordinate when an index appears with conflicting bits;
    repeating the same (index, bit) pair is harmless.
    """
    seen: dict[int, int] = {}
    for i, b in pairs:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"coordinate {i} outside dimension {n}")
        if b not in (0, 1):
            raise InvalidParameter(f"bit for coordinate {i} must be 0 or 1, got {b}")
        if i in seen and seen[i] != b:
            raise DuplicateCoordinate(f"coordinate {i} fixed to both {seen[i]} and {b}")
        seen[i] = b
    return Condition(tuple(sorted(seen.items())))


def prefix_condition(x: Bits, i: int) -> Condition:
    """Fix coordinates 0..i-1 to the corresponding bits of x; i == 0 is the full cube."""
    if not 0 <= i <= len(x):
        raise IndexOutOfRange(f"prefix length {i} outside [0, {len(x)}]")
    return Condition(tuple((j, x[j]) for j in range(i)))


def rng_stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic generator for (master_seed, stream_id).

    Equal pairs yield byte-identical draw sequences; distinct stream ids give
    statistically independent streams of the same master seed.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(stream_id,)))


class ConditionalSampler(abc.ABC):
    """A sampler over {0,1}^n supporting subcube-conditional draws.

    Implementations must return strings agreeing with every fixed coordinate
    of the condition.  When the conditioned mass is zero they must fall back
    to uniform i.i.d. bits on the free coordinates (see uniform_fallback_many).
    Randomness comes only from the caller-provided generator.  The extension
    samplers keep caches behind a lock: threads may share one sampler and
    get the reports they would get alone, though their interleaved
    conditions may make it rebuild orders from the root.
    """

    n: int

    @abc.abstractmethod
    def draw_many(self, condition: Condition, m: int, rng: np.random.Generator) -> np.ndarray:
        """m samples consistent with the condition, as an (m, n) uint8 array."""

    def draw(self, condition: Condition, rng: np.random.Generator) -> Bits:
        """One sample consistent with the condition: draw_many's one row."""
        return tuple(self.draw_many(condition, 1, rng)[0].tolist())

    def draw_coordinate(
        self, condition: Condition, coord: int, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The values of one coordinate over m conditional draws.

        The projection of draw_many.  The extension samplers override it
        with a faster path that returns the same column and leaves the
        generator in the same state.
        """
        return self.draw_many(condition, m, rng)[:, coord]


class KnownDistribution(abc.ABC):
    """A distribution over {0,1}^n whose point mass is exactly evaluable."""

    n: int

    @abc.abstractmethod
    def mass(self, x: Bits) -> float:
        """Exact probability of the point x."""


def evaluate_mass(dist: KnownDistribution, x: Bits) -> float:
    if len(x) != dist.n:
        raise DimensionMismatch(f"point has dimension {len(x)}, distribution has {dist.n}")
    return dist.mass(x)


def uniform_fallback_many(
    condition: Condition, n: int, m: int, rng: np.random.Generator
) -> np.ndarray:
    """m uniform draws from a zero-mass subcube as an (m, n) uint8 array:
    fixed bits forced, free bits fair coins."""
    out = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    for i, b in condition.fixed:
        out[:, i] = b
    return out


class ProductSampler(ConditionalSampler, KnownDistribution):
    """Independent bits, bit i equal to 1 with probability probs[i].

    Conditioning a product distribution on fixed coordinates leaves the free
    coordinates untouched, so the conditional draw is exact by construction.
    Doubles as its own known distribution; mainly a reference implementation
    of both interfaces for tests and calibration.
    """

    def __init__(self, probs: Sequence[float]):
        self.probs = tuple(float(p) for p in probs)
        if any(not 0.0 <= p <= 1.0 for p in self.probs):
            raise ValueError("probabilities must lie in [0, 1]")
        self.n = len(self.probs)

    def _zero_mass(self, condition: Condition) -> bool:
        return any(self.probs[i] == (1.0 - b) for i, b in condition.fixed)

    def draw_many(self, condition: Condition, m: int, rng: np.random.Generator) -> np.ndarray:
        if self._zero_mass(condition):
            return uniform_fallback_many(condition, self.n, m, rng)
        u = rng.random((m, self.n))
        out = (u < np.asarray(self.probs)).astype(np.uint8)
        for i, b in condition.fixed:
            out[:, i] = b
        return out

    def mass(self, x: Bits) -> float:
        p = 1.0
        for b, q in zip(x, self.probs):
            p *= q if b == 1 else 1.0 - q
        return p
