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

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Bits, Condition, ConditionalSampler, KnownDistribution, uniform_fallback
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


class _ExtensionSampler(ConditionalSampler):
    """Shared machinery for self-reducible extension samplers.

    Conditioning is realized by folding the fixed bits into the poset and
    drawing an extension of the conditioned order; results are encoded
    against the ORIGINAL free map, so they agree with the condition.  A
    contradictory condition means a zero-mass subcube and falls back to
    uniform bits on the free coordinates.

    A single draw(), and every draw once the conditioned poset has more
    than enum_cap elements, is the sequential walk of _draw_order, with
    the subclass's _pick choosing each step.  Other batched draws come from
    an exact support table per condition, built in one backtracking pass
    that records each extension with the walk's probability of drawing it.
    Conditioned posets and tables are memoized; thread races are benign.
    """

    _float_weights: Optional[tuple[float, ...]] = None  # walk weights; None is uniform

    def __init__(self, poset: Poset, enum_cap: int = ENUM_CAP):
        self.poset = poset
        self.free_map = poset.free_map
        self.n = self.free_map.n
        self.enum_cap = enum_cap
        self._pairs = np.array(self.free_map.pairs, dtype=np.intp).reshape(-1, 2)
        self._cond_cache: dict[Condition, Optional[Poset]] = {}
        self._table_cache: dict[Condition, Optional[tuple[np.ndarray, np.ndarray]]] = {}

    def _conditioned(self, condition: Condition) -> Optional[Poset]:
        if condition not in self._cond_cache:
            try:
                self._cond_cache[condition] = apply_condition(self.poset, condition)
            except ContradictionError:
                self._cond_cache[condition] = None
        return self._cond_cache[condition]

    def _pick(self, pc: Poset, mask: int, minimals: list[int], rng: np.random.Generator) -> int:
        raise NotImplementedError  # the walk's next element among two or more minimal ones

    def _draw_order(self, pc: Poset, rng: np.random.Generator) -> tuple[int, ...]:
        """Sequential draw: repeatedly pick the next element among the minimal ones."""
        mask = (1 << pc.k) - 1
        order = []
        while mask:
            minimals = pc.minimal_in(mask)
            pick = minimals[0] if len(minimals) == 1 else self._pick(pc, mask, minimals, rng)
            order.append(pick)
            mask ^= 1 << pick
        return tuple(order)

    def draw(self, condition: Condition, rng: np.random.Generator) -> Bits:
        pc = self._conditioned(condition)
        if pc is None:
            return uniform_fallback(condition, self.n, rng)
        return extension_to_bits(LinearExtension(self._draw_order(pc, rng)), self.free_map)

    def _table(self, condition: Condition) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(support bits, cumulative probabilities) or None when unavailable."""
        if condition not in self._table_cache:
            pc = self._conditioned(condition)
            if pc is None or pc.k > self.enum_cap:
                self._table_cache[condition] = None
            else:
                orders, probs = _walk_extensions(pc, self.enum_cap, self._float_weights)
                pos = np.argsort(np.array(orders), axis=1)
                bits = (pos[:, self._pairs[:, 0]] < pos[:, self._pairs[:, 1]]).astype(np.uint8)
                probs = np.array(probs)
                cum = np.cumsum(probs / probs.sum())
                cum[-1] = 1.0
                self._table_cache[condition] = (bits, cum)
        return self._table_cache[condition]

    def draw_many(self, condition: Condition, m: int, rng: np.random.Generator) -> np.ndarray:
        table = self._table(condition)
        if table is None:
            return super().draw_many(condition, m, rng)
        bits, cum = table
        idx = np.searchsorted(cum, rng.random(m), side="right")
        return bits[idx]

    def draw_coordinate(
        self, condition: Condition, coord: int, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        table = self._table(condition)
        if table is None:
            return super().draw_coordinate(condition, coord, m, rng)
        bits, cum = table
        idx = np.searchsorted(cum, rng.random(m), side="right")
        return bits[idx, coord]


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

    def _pick(self, pc: Poset, mask: int, minimals: list[int], rng: np.random.Generator) -> int:
        # Integer counts keep the choice exact (they fit in 64 bits under COUNT_CAP).
        weights = [pc.count_upset(mask ^ (1 << e)) for e in minimals]
        t = int(rng.integers(0, sum(weights)))
        for e, w in zip(minimals, weights):
            if t < w:
                return e
            t -= w
        return minimals[-1]

    def mass(self, x: Bits) -> float:
        try:
            bits_to_extension(tuple(x), self.poset)
        except InvalidEncoding:
            return 0.0
        return 1.0 / self.total

    def conditional_marginal(self, condition: Condition, coord: int) -> Fraction:
        """Exact Pr[bit coord == 1 | condition], by counting extensions."""
        pc = self._conditioned(condition)
        if pc is None:
            raise ZeroMassPrefix("condition is contradictory")
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

    def _pick(self, pc: Poset, mask: int, minimals: list[int], rng: np.random.Generator) -> int:
        weights = [self._float_weights[e] for e in minimals]
        u = rng.random() * sum(weights)
        acc = 0.0
        for e, w in zip(minimals, weights):
            acc += w
            if u < acc:
                return e
        return minimals[-1]


def uniform_extension_sampler(p: Poset, enum_cap: int = ENUM_CAP) -> UniformExtensionSampler:
    return UniformExtensionSampler(p, enum_cap)


def biased_extension_sampler(p: Poset, weights: Sequence) -> BiasedExtensionSampler:
    return BiasedExtensionSampler(p, weights)
