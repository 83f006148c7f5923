"""Partial orders, their hypercube encoding, and linear-extension samplers.

A poset on k elements is encoded by the upper triangle of its relation
matrix, unrolled row-major into a {0,1,*} string of length C(k,2).  The *
positions (incomparable pairs) are the free coordinates of a Boolean
subcube: sampling a linear extension is sampling a point of that subcube,
and fixing a free bit is adding one oriented pair to the order.

Elements are 0-based internally; instance documents and reported pair
labels are 1-based.
"""

from __future__ import annotations

import functools
import json
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import Bits, Condition, ConditionalSampler, KnownDistribution, uniform_fallback_many
from .errors import (
    ContradictionError,
    CycleError,
    InvalidEncoding,
    ParseError,
    TooLarge,
    ZeroMassPrefix,
)

ENUM_CAP = 10
COUNT_CAP = 20


@dataclass(frozen=True)
class FreeBitMap:
    """Row-major list of the incomparable (starred) upper-triangle pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.pairs)

    def label_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i + 1, j + 1) for i, j in self.pairs)


@dataclass(frozen=True)
class LinearExtension:
    """A total order (permutation of 0..k-1) containing the poset order."""

    order: tuple[int, ...]

    def labels(self) -> tuple[int, ...]:
        return tuple(e + 1 for e in self.order)


def _close_and_check(leq: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Transitive closure by boolean-matmul fixpoint; raises on a cycle."""
    while True:
        new = leq | (leq @ leq)
        if np.array_equal(new, leq):
            break
        leq = new
    k = leq.shape[0]
    off_diag = ~np.eye(k, dtype=bool)
    if (leq & leq.T & off_diag).any():
        raise error("relations contain a cycle")
    leq.flags.writeable = False
    return leq


class Poset:
    """Immutable partial order; ``leq[i, j]`` is True iff i precedes-or-equals j.

    The matrix is stored transitively closed with a reflexive diagonal.  The
    base linear order used for the matrix encoding is element-label order.
    """

    __slots__ = ("k", "leq", "_free_map", "_below", "_nmemo")

    def __init__(self, leq: np.ndarray):
        self.k = leq.shape[0]
        self.leq = leq
        self._free_map: Optional[FreeBitMap] = None
        self._below: Optional[list[int]] = None
        self._nmemo: dict[int, int] = {}

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "Poset":
        """Build from 1-based (a, b) pairs meaning a precedes b."""
        if k < 1:
            raise ParseError(f"element count must be positive, got {k}")
        leq = np.eye(k, dtype=bool)
        for a, b in relations:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ParseError(f"relation ({a}, {b}) outside elements 1..{k}")
            if a != b:
                leq[a - 1, b - 1] = True
        return cls(_close_and_check(leq, CycleError))

    @property
    def free_map(self) -> FreeBitMap:
        if self._free_map is None:
            pairs = [
                (i, j)
                for i in range(self.k)
                for j in range(i + 1, self.k)
                if not self.leq[i, j] and not self.leq[j, i]
            ]
            self._free_map = FreeBitMap(tuple(pairs))
        return self._free_map

    @property
    def below_masks(self) -> list[int]:
        """below_masks[e]: bitmask of the strict predecessors of e."""
        if self._below is None:
            masks = []
            for e in range(self.k):
                m = 0
                for a in range(self.k):
                    if a != e and self.leq[a, e]:
                        m |= 1 << a
                masks.append(m)
            self._below = masks
        return self._below

    def minimal_in(self, mask: int) -> list[int]:
        below = self.below_masks
        return [e for e in range(self.k) if (mask >> e) & 1 and below[e] & mask == 0]

    def count_upset(self, mask: int) -> int:
        """Number of linear orderings of the induced subposet on ``mask``."""
        memo = self._nmemo
        below = self.below_masks

        def rec(m: int) -> int:
            if m == 0:
                return 1
            v = memo.get(m)
            if v is not None:
                return v
            total = 0
            mm = m
            while mm:
                low = mm & -mm
                e = low.bit_length() - 1
                mm ^= low
                if below[e] & m == 0:
                    total += rec(m ^ low)
            memo[m] = total
            return total

        return rec(mask)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and np.array_equal(self.leq, other.leq)

    def __hash__(self) -> int:
        return hash((self.k, self.leq.tobytes()))

    def __repr__(self) -> str:
        rels = [
            (i + 1, j + 1)
            for i in range(self.k)
            for j in range(self.k)
            if i != j and self.leq[i, j]
        ]
        return f"Poset(k={self.k}, relations={rels})"


def parse_poset(text: str) -> Poset:
    """Parse an instance document: {"elements": k, "relations": [[a, b], ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "elements" not in doc or "relations" not in doc:
        raise ParseError("document must carry 'elements' and 'relations'")
    k = doc["elements"]
    relations = doc["relations"]
    if not isinstance(k, int):
        raise ParseError("'elements' must be an integer")
    if not isinstance(relations, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(isinstance(v, int) for v in r)
        for r in relations
    ):
        raise ParseError("'relations' must be a list of [a, b] integer pairs")
    return Poset.from_relations(k, [(a, b) for a, b in relations])


def encode_matrix(p: Poset) -> tuple[list[list[str]], str, FreeBitMap]:
    """Relation matrix over {0,1,*}, its upper-triangle unrolling, and the free map."""
    k = p.k
    matrix = [["1"] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            matrix[i][j] = "1" if p.leq[i, j] else ("0" if p.leq[j, i] else "*")
    unrolled = "".join(matrix[i][j] for i in range(k) for j in range(i + 1, k))
    return matrix, unrolled, p.free_map


def orient_pair(p: Poset, i: int, j: int, bit: int) -> Poset:
    """Decide the pair (i, j): bit 1 adds i before j, bit 0 adds j before i.

    A pair already decided the same way is a no-op; deciding against an
    existing relation (directly or through closure) raises
    ContradictionError, which marks a zero-mass subcube.
    """
    a, b = (i, j) if bit == 1 else (j, i)
    if p.leq[a, b]:
        return p
    if p.leq[b, a]:
        raise ContradictionError(f"pair ({a + 1}, {b + 1}) contradicts existing order")
    leq = np.array(p.leq)
    leq[a, b] = True
    return Poset(_close_and_check(leq, ContradictionError))


def fix_free_pair(p: Poset, free_index: int, bit: int) -> Poset:
    """Fix one starred pair of p's own free map; see orient_pair."""
    i, j = p.free_map.pairs[free_index]
    return orient_pair(p, i, j, bit)


def apply_condition(p: Poset, condition: Condition) -> Poset:
    """Fold a subcube condition into the poset.

    Indices refer to p's free map, so chained conditions must always be
    applied to the original poset, never to an already-conditioned one.
    """
    pairs = p.free_map.pairs
    out = p
    for idx, bit in condition.fixed:
        i, j = pairs[idx]
        out = orient_pair(out, i, j, bit)
    return out


def _walk_extensions(p: Poset, cap: int, w: Sequence[float] | None = None) -> tuple[list, list]:
    """Each extension's order with its greedy-walk probability, in one backtracking pass.

    Each step multiplies it by w[e] / (total w of the minimal elements), in
    step order: exactly 1 at a lone minimal element.  Without w it stays 1.
    """
    if p.k > cap:
        raise TooLarge(f"enumeration needs k <= {cap}, got {p.k}")
    below, k = p.below_masks, p.k
    orders, probs, order = [], [], []

    def rec(mask: int, prob: float) -> None:
        if mask == 0:
            orders.append(tuple(order))
            probs.append(prob)
            return
        total = w and sum(w[e] for e in range(k) if mask >> e & 1 and not below[e] & mask)
        for e in range(k):
            if mask >> e & 1 and not below[e] & mask:
                order.append(e)
                rec(mask ^ (1 << e), prob * (w[e] / total) if w else prob)
                order.pop()

    rec((1 << p.k) - 1, 1.0)
    return orders, probs


def enumerate_extensions(p: Poset, cap: int = ENUM_CAP) -> list[LinearExtension]:
    """All linear extensions, by backtracking over minimal elements."""
    return [LinearExtension(o) for o in _walk_extensions(p, cap)[0]]


def count_extensions(p: Poset, cap: int = COUNT_CAP) -> int:
    """|L(P)| exactly, via dynamic programming over order ideals."""
    if p.k > cap:
        raise TooLarge(f"counting needs k <= {cap}, got {p.k}")
    return p.count_upset((1 << p.k) - 1)


def extension_to_bits(e: LinearExtension, free_map: FreeBitMap) -> Bits:
    """Free-bit encoding: bit for pair (i, j) is 1 iff i precedes j in e."""
    pos = {elem: t for t, elem in enumerate(e.order)}
    return tuple(1 if pos[i] < pos[j] else 0 for i, j in free_map.pairs)


def bits_to_extension(bits: Bits, p: Poset) -> LinearExtension:
    """Inverse of extension_to_bits; InvalidEncoding when no extension matches."""
    free_map = p.free_map
    if len(bits) != free_map.n:
        raise InvalidEncoding(f"expected {free_map.n} free bits, got {len(bits)}")
    out = p
    try:
        for idx, bit in enumerate(bits):
            i, j = free_map.pairs[idx]
            out = orient_pair(out, i, j, bit)
    except ContradictionError as exc:
        raise InvalidEncoding(str(exc)) from exc
    # Every pair is now decided, so predecessor counts are 0..k-1.
    counts = [int(out.leq[:, e].sum()) - 1 for e in range(p.k)]
    order = tuple(e for _, e in sorted(zip(counts, range(p.k))))
    return LinearExtension(order)


def encode_cnf(p: Poset) -> str:
    """DIMACS encoding whose models are exactly the linear extensions.

    One variable per unordered pair (row-major upper-triangle numbering;
    true means the smaller-labeled element precedes).  Unit clauses pin
    every decided relation; one transitivity clause is emitted per ordered
    triple of distinct elements, duplicates included.
    """
    k = p.k
    var = {}
    idx = 0
    for i in range(k):
        for j in range(i + 1, k):
            idx += 1
            var[(i, j)] = idx

    def lit(a: int, b: int) -> int:
        # literal for "a precedes b"
        return var[(a, b)] if a < b else -var[(b, a)]

    clauses: list[list[int]] = []
    for a in range(k):
        for b in range(k):
            if a != b and p.leq[a, b]:
                clauses.append([lit(a, b)])
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if a == b or b == c or a == c:
                    continue
                clauses.append([-lit(a, b), -lit(b, c), lit(a, c)])
    lines = [f"p cnf {idx} {len(clauses)}"]
    lines.extend(" ".join(str(v) for v in cl) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


def _remaining_counts(below: np.ndarray) -> np.ndarray:
    """counts[mask]: the number of linear orders of the elements in mask, for every mask.

    Dynamic programming over subsets by size: counts[mask] sums
    counts[mask - e] over the minimal elements e of mask.  Dense over all
    2^k masks; int64 is exact for k <= COUNT_CAP, since 20! < 2^63.
    """
    k = len(below)
    masks = np.arange(1 << k, dtype=np.int64)
    by_size = np.argsort(np.bitwise_count(masks), kind="stable")
    starts = np.searchsorted(np.bitwise_count(by_size), np.arange(k + 2))
    counts = np.zeros(1 << k, dtype=np.int64)
    counts[0] = 1
    for size in range(1, k + 1):
        level = by_size[starts[size] : starts[size + 1]]
        total = np.zeros(len(level), dtype=np.int64)
        for e in range(k):
            minimal = ((level >> e) & 1 == 1) & ((level & below[e]) == 0)
            total += np.where(minimal, counts[level ^ (1 << e)], 0)
        counts[level] = total
    return counts


# Rows of one step of the batched walk: its peak memory is O(_WALK_CHUNK * k).
_WALK_CHUNK = 2048
# The walk's remaining-element sets are int64 masks.
_MASK_CAP = 63


def _cache_entries(k: int) -> int:
    """Conditions kept per sampler: 128, fewer above k = 16, where the
    uniform walk's count tables (8 * 2^k bytes each) would pass 64 MB."""
    return max(1, min(128, (64 << 20) >> (k + 3)))


# The walk's step weights: (each walk's remaining-element mask, (k, walks)
# minimal-element flags) -> each element's weight in each walk.
_StepWeights = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class _Support:
    """What the draws under one condition need.

    Up to enum_cap elements, the exact support table: each extension's free
    bits with the cumulative probability of drawing it.  Above, the batched
    walk's inputs: the conditioned poset's strict-predecessor masks and the
    sampler's step weights, zero where an element is not minimal.
    """

    table: Optional[tuple[np.ndarray, np.ndarray]] = None
    below: Optional[np.ndarray] = None
    step_weights: Optional[_StepWeights] = None


class _ExtensionSampler(ConditionalSampler):
    """Shared machinery for self-reducible extension samplers.

    Conditioning is realized by folding the fixed bits into the poset and
    drawing an extension of the conditioned order; results are encoded
    against the ORIGINAL free map, so they agree with the condition.  A
    contradictory condition means a zero-mass subcube and falls back to
    uniform bits on the free coordinates.

    Every draw, single or batched, takes one of two paths.  When the poset
    has at most enum_cap elements it is a lookup in an exact support table
    per condition, built in one backtracking pass that records each
    extension with the walk's probability of drawing it.  Above enum_cap it
    is the batched walk: all rows of a call advance together, one element
    per step, each picking among its current minimal elements by the
    subclass's step weights.  Both give the same law, so enum_cap bounds
    the memory of a table (one row per extension), not the draw's speed.
    Each sampler keeps the last conditions' supports in an LRU cache.
    """

    _float_weights: Optional[tuple[float, ...]] = None  # walk weights; None is uniform

    def __init__(self, poset: Poset, enum_cap: int = ENUM_CAP):
        if poset.k > _MASK_CAP:
            raise TooLarge(f"sampling needs k <= {_MASK_CAP}, got {poset.k}")
        self.poset = poset
        self.free_map = poset.free_map
        self.n = self.free_map.n
        self.enum_cap = enum_cap
        self._pairs = np.array(self.free_map.pairs, dtype=np.intp).reshape(-1, 2)
        # The cache reaches the sampler through a weak reference: a bound
        # method would make a cycle that keeps a dropped sampler's tables
        # alive until the garbage collector's next full pass.
        ref = weakref.ref(self)
        self._support = functools.lru_cache(maxsize=_cache_entries(poset.k))(
            lambda condition: ref()._build_support(condition)
        )

    def _build_support(self, condition: Condition) -> Optional[_Support]:
        """The support under a condition; None when the condition is contradictory."""
        try:
            pc = apply_condition(self.poset, condition)
        except ContradictionError:
            return None
        if pc.k <= self.enum_cap:
            orders, probs = _walk_extensions(pc, self.enum_cap, self._float_weights)
            pos = np.argsort(np.array(orders), axis=1)
            bits = (pos[:, self._pairs[:, 0]] < pos[:, self._pairs[:, 1]]).astype(np.uint8)
            probs = np.array(probs)
            cum = np.cumsum(probs / probs.sum())
            cum[-1] = 1.0
            return _Support(table=(bits, cum))
        below = np.array(pc.below_masks, dtype=np.int64)
        return _Support(below=below, step_weights=self._step_weights(below))

    def _step_weights(self, below: np.ndarray) -> _StepWeights:
        raise NotImplementedError  # the walk's step weights on the poset with these masks

    def _walk(self, support: _Support, m: int, rng: np.random.Generator):
        """Yield (first row, positions) for m walks, _WALK_CHUNK walks at a time.

        positions[e, r] is the step at which walk r placed element e; arrays
        are element-major, so each per-element operation runs over all walks.
        At each step the pick is the first element whose cumulative weight
        exceeds u * total: u uniform for float weights, an exact integer in
        [0, total) for integer counts.  If rounding leaves no weight above
        it, the pick is the walk's last minimal element.
        """
        below, weights = support.below, support.step_weights
        k = len(below)
        bit = np.left_shift(1, np.arange(k, dtype=np.int64))[:, None]
        need = bit | below[:, None]  # e is minimal in mask iff mask & need[e] == bit[e]
        for first in range(0, m, _WALK_CHUNK):
            walks = min(_WALK_CHUNK, m - first)
            mask = np.full(walks, (1 << k) - 1, dtype=np.int64)
            pos = np.empty((k, walks), dtype=np.int8)
            col = np.arange(walks)
            for step in range(k):
                minimal = (mask & need) == bit
                cum = weights(mask, minimal)
                for e in range(1, k):
                    cum[e] += cum[e - 1]
                if cum.dtype.kind == "i":
                    u = rng.integers(0, cum[-1])
                else:
                    u = rng.random(walks) * cum[-1]
                pick = np.add.reduce(cum <= u, axis=0, dtype=np.int8)
                stuck = pick == k
                if stuck.any():
                    pick[stuck] = k - 1 - minimal[::-1, stuck].argmax(axis=0)
                pos[pick, col] = step
                mask ^= bit[pick, 0]
            yield first, pos

    def _draw(self, condition: Condition, cols, m: int, rng: np.random.Generator) -> np.ndarray:
        """Free bits cols (a slice, or one coordinate) of m conditional draws."""
        support = self._support(condition)
        if support is None:
            return uniform_fallback_many(condition, self.n, m, rng)[:, cols]
        if support.table is not None:
            bits, cum = support.table
            return bits[np.searchsorted(cum, rng.random(m), side="right"), cols]
        pairs = self._pairs[cols]
        out = np.empty((m,) + pairs.shape[:-1], dtype=np.uint8)
        for first, pos in self._walk(support, m, rng):
            out[first : first + pos.shape[1]] = (pos[pairs[..., 0]] < pos[pairs[..., 1]]).T
        return out

    def draw(self, condition: Condition, rng: np.random.Generator) -> Bits:
        return tuple(self._draw(condition, slice(None), 1, rng)[0].tolist())

    def draw_many(self, condition: Condition, m: int, rng: np.random.Generator) -> np.ndarray:
        return self._draw(condition, slice(None), m, rng)

    def draw_coordinate(
        self, condition: Condition, coord: int, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._draw(condition, coord, m, rng)


class UniformExtensionSampler(_ExtensionSampler, KnownDistribution):
    """Exactly uniform draws over the linear extensions of a poset.

    At every step the next element is chosen among the current minimal
    elements with probability proportional to the number of extensions that
    start with it, so the draw is uniform without rejection.  Conditioning
    on fixed bits keeps it uniform over the surviving extensions, which is
    precisely the subcube-conditional distribution.  Also serves as the
    known distribution: every valid encoding has mass 1/|extensions|.
    """

    def __init__(self, poset: Poset, enum_cap: int = ENUM_CAP):
        super().__init__(poset, enum_cap)
        self.total = count_extensions(poset)

    def _step_weights(self, below: np.ndarray) -> _StepWeights:
        # Each minimal element weighs the number of extensions that start with
        # it; integer counts keep the choice exact.
        counts = _remaining_counts(below)
        bit = np.left_shift(1, np.arange(len(below), dtype=np.int64))[:, None]
        return lambda mask, minimal: np.where(minimal, counts[mask ^ bit], 0)

    def mass(self, x: Bits) -> float:
        try:
            bits_to_extension(tuple(x), self.poset)
        except InvalidEncoding:
            return 0.0
        return 1.0 / self.total

    def conditional_marginal(self, condition: Condition, coord: int) -> Fraction:
        """Exact Pr[bit coord == 1 | condition], by counting extensions."""
        try:
            pc = apply_condition(self.poset, condition)
        except ContradictionError:
            raise ZeroMassPrefix("condition is contradictory") from None
        denom = count_extensions(pc)
        i, j = self.free_map.pairs[coord]
        try:
            num = count_extensions(orient_pair(pc, i, j, 1))
        except ContradictionError:
            num = 0
        return Fraction(num, denom)


class BiasedExtensionSampler(_ExtensionSampler):
    """Greedy weighted draws: next element picked among the current minimal
    elements with probability proportional to its weight.

    A synthetic non-uniform sampler used as the unknown side in tests and
    experiments.  Conditioning runs the same greedy walk on the conditioned
    poset; on some posets this deviates slightly from conditioning the
    unconditioned distribution (see the oracle helpers to quantify it).
    """

    def __init__(self, poset: Poset, weights: Sequence):
        super().__init__(poset)
        if len(weights) != poset.k:
            raise ValueError(f"need {poset.k} weights, got {len(weights)}")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = tuple(weights)
        self._float_weights = tuple(float(w) for w in weights)

    def _step_weights(self, below: np.ndarray) -> _StepWeights:
        weights = np.array(self._float_weights)[:, None]
        return lambda mask, minimal: np.where(minimal, weights, 0.0)


def uniform_extension_sampler(p: Poset, enum_cap: int = ENUM_CAP) -> UniformExtensionSampler:
    return UniformExtensionSampler(p, enum_cap)


def biased_extension_sampler(p: Poset, weights: Sequence) -> BiasedExtensionSampler:
    return BiasedExtensionSampler(p, weights)
