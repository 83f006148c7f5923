"""Partial orders, their hypercube encoding, and linear-extension samplers.

A poset on k elements is encoded by the upper triangle of its relation
matrix, unrolled row-major into a {0,1,*} string of length C(k,2).  The *
positions (incomparable pairs) are the free coordinates of a Boolean
subcube: sampling a linear extension is sampling a point of that subcube,
and fixing a free bit is adding one oriented pair to the order.  Every
order is grown by one routine that adds relations one at a time to a
closed matrix; a relation whose reverse already holds is a cycle, and the
error it raises (CycleError, ContradictionError, InvalidEncoding) names it.
One level-by-level expansion, extension_rows, lists an order's linear
extensions for the support tables, enumerate_extensions and the exact
oracle, raising TooLarge past LISTING_BYTES.  A sampler walks an order whose
counted extensions (_upset_counts) would pass it, and filters a child order's
table from its parent's cached rows that agree with the added pair.

Elements are 0-based internally; instance documents and reported pair
labels are 1-based.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Bits, Condition, ConditionalSampler, KnownDistribution, uniform_fallback_many
from .errors import ContradictionError, CycleError, InvalidEncoding, ParseError, TooLarge


def _totals_dtype(weights: Optional[Sequence[float]]) -> Optional[np.dtype]:
    """Step totals' dtype: the narrowest unsigned one for integer weights summing to
    at most 2^53, so each total is an exact float; None for any other weights."""
    if weights and all(float(w).is_integer() for w in weights):
        if (weight_sum := sum(map(int, weights))) <= 1 << 53:
            return np.min_scalar_type(weight_sum)
    return None


def _row_bytes(k: int, n: int, totals: Optional[np.dtype] = None) -> int:
    # a step's rows x k minimal test (int64 and bool) and two float64 arrays
    # (weights: both samplers pay them), each row's positions, mask,
    # probability, row and element index; then the table's n bits and float;
    # with integer weights, each row's k step totals
    return 26 * k + 32 + n + 8 + (0 if totals is None else totals.itemsize * k)


# Bytes of one listing (extension_rows): 2^19 rows at k = 10 and n = 45, 181 MB
LISTING_BYTES = (1 << 19) * _row_bytes(10, 45)
COUNT_CAP = 20
# The walk's remaining-element sets are int64 masks.
ELEMENT_CAP = 63


@dataclass(frozen=True)
class FreeBitMap:
    """Row-major list of the incomparable (starred) upper-triangle pairs."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.pairs)

    def label_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i + 1, j + 1) for i, j in self.pairs)


def _add_relations(
    leq: np.ndarray, pairs: Iterable[tuple[int, int]], error: type[Exception]
) -> np.ndarray:
    """Add each (a, b), a before b, to the closed order leq; a frozen copy.

    Adding a before b puts everything at or below a below everything at or
    above b, so the copy stays closed (Italiano, 1986), and it gains a
    cycle exactly when b is already at or below a: then error names the pair.
    """
    leq = np.array(leq)
    for a, b in pairs:
        if leq[b, a]:
            raise error(f"({a + 1}, {b + 1}) closes a cycle: {b + 1} already precedes {a + 1}")
        if not leq[a, b]:
            leq |= leq[:, a, None] & leq[b]
    leq.flags.writeable = False
    return leq


def _element_masks(leq: np.ndarray) -> np.ndarray:
    """masks[e]: int64 bitmask of the elements f != e with leq[e, f]."""
    bit = np.left_shift(1, np.arange(len(leq), dtype=np.int64))
    return np.where(leq, bit, 0).sum(axis=1) - bit


class Poset:
    """Immutable partial order; ``leq[i, j]`` is True iff i precedes-or-equals j.

    The matrix is stored transitively closed with a reflexive diagonal.  The
    base linear order used for the matrix encoding is element-label order.
    """

    __slots__ = ("k", "leq", "_free_map", "_below")

    def __init__(self, leq: np.ndarray):
        self.k = leq.shape[0]
        self.leq = leq
        self._free_map: Optional[FreeBitMap] = None
        self._below: Optional[np.ndarray] = None

    @classmethod
    def from_relations(cls, k: int, relations: Iterable[tuple[int, int]]) -> "Poset":
        """Build from 1-based (a, b) pairs meaning a precedes b."""
        if k < 1:
            raise ParseError(f"element count must be positive, got {k}")
        if k > ELEMENT_CAP:  # before the k x k matrix is allocated
            raise TooLarge(f"instances need k <= {ELEMENT_CAP} elements, got {k}")
        pairs = []
        for a, b in relations:
            if not (1 <= a <= k and 1 <= b <= k):
                raise ParseError(f"relation ({a}, {b}) outside elements 1..{k}")
            if a != b:
                pairs.append((a - 1, b - 1))
        return cls(_add_relations(np.eye(k, dtype=bool), pairs, CycleError))

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
    def below_masks(self) -> np.ndarray:
        """below_masks[e]: int64 bitmask of the strict predecessors of e."""
        if self._below is None:
            self._below = _element_masks(self.leq.T)
        return self._below

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
    if type(k) is not int:  # JSON true and false are bools, a subclass of int
        raise ParseError("'elements' must be an integer")
    if not isinstance(relations, list) or not all(
        isinstance(r, list) and len(r) == 2 and all(type(v) is int for v in r)
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

    A pair already decided the same way returns p itself; deciding against
    the order raises ContradictionError, which names the pair and marks a
    zero-mass subcube.
    """
    a, b = (i, j) if bit == 1 else (j, i)
    if p.leq[a, b]:
        return p
    return Poset(_add_relations(p.leq, [(a, b)], ContradictionError))


def apply_condition(p: Poset, condition: Condition) -> Poset:
    """Fold a subcube condition into the poset, one oriented pair at a time.

    Indices refer to p's free map, so chained conditions must always be
    applied to the original poset, never to an already-conditioned one.
    The samplers fold a child of the last condition they met into that
    condition's order with orient_pair, still naming the pair by the
    original free map, and apply any other condition here.
    FULL_CUBE returns p itself.  A pair whose reverse the order already
    holds, given or implied by the pairs before it, raises
    ContradictionError naming that pair.
    """
    if not condition.fixed:
        return p
    free = p.free_map.pairs
    pairs = (free[idx] if bit == 1 else free[idx][::-1] for idx, bit in condition.fixed)
    return Poset(_add_relations(p.leq, pairs, ContradictionError))


def check_weights(k: int, weights: Sequence) -> tuple[float, ...]:
    """The floats of k biased-sampler weights, the one rule for such weights.

    ValueError unless there are k of them and each float and the floats'
    sum are positive and finite: a finite sum keeps each step's total finite.
    """
    if len(weights) != k:
        raise ValueError(f"need {k} weights, got {len(weights)}")
    try:
        floats = tuple(float(w) for w in weights)
    except OverflowError as exc:
        raise ValueError(f"weights must be finite floats: {exc}") from exc
    # 0 < w < inf is false for nan
    if not all(0.0 < w < math.inf for w in floats) or sum(floats) == math.inf:
        raise ValueError("weights and their sum must be positive and finite as floats")
    return floats


def extension_rows(
    p: Poset, pairs, weights: Optional[Sequence[float]] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Every linear extension of p, one row each: (pos, bits, prob, totals).

    pos[r, e] is the step at which row r places e; bits[c, r] is 1 iff row
    r places pairs[c]'s first element first; prob[r] is the greedy walk's
    probability of row r under the weights, 1 without them.  totals[r, t],
    of dtype _totals_dtype(weights) (None when that is), is the weight of
    the elements minimal at row r's step t.  Each step extends every row by
    each of its minimal elements, and row-major nonzero keeps the rows in
    lexicographic order.  Every row has a minimal element, so no level has
    fewer rows than the one before: a level whose rows at _row_bytes each
    pass LISTING_BYTES raises TooLarge before it is built, which bounds the
    whole listing and its transients.
    """
    k, below = p.k, p.below_masks
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    dtype = _totals_dtype(weights)
    totals = None if dtype is None else np.zeros((1, k), dtype)
    bit = np.left_shift(1, np.arange(k, dtype=np.int64))
    mask = np.array([(1 << k) - 1])
    pos = np.zeros((1, k), dtype=np.int8)
    prob = np.ones(1)
    for step in range(k):
        minimal = (mask[:, None] & (bit | below)) == bit
        if (count := np.count_nonzero(minimal)) * _row_bytes(k, len(pairs), dtype) > LISTING_BYTES:
            raise TooLarge(f"over {LISTING_BYTES} bytes: {count} rows at step {step + 1}")
        rows, es = np.nonzero(minimal)
        mask, pos, prob = mask[rows] ^ bit[es], pos[rows], prob[rows]
        pos[np.arange(len(rows)), es] = step
        if weights:  # times w[e] / the minimal elements' total, summed in ascending order
            wm = np.where(minimal, weights, 0.0)
            total = np.cumsum(wm, axis=1)[rows, -1]
            prob *= wm[rows, es] / total
            if totals is not None:
                totals = totals[rows]
                totals[:, step] = total
    # n x rows in one gather: pos.T's fancy-indexed rows come out C-contiguous
    bits = (pos.T[pairs[:, 0]] < pos.T[pairs[:, 1]]).view(np.uint8)
    return pos, bits, prob, totals


def enumerate_extensions(p: Poset) -> list[tuple[int, ...]]:
    """All linear extensions, each the tuple of elements in its order, sorted.

    extension_rows' listing, so TooLarge past LISTING_BYTES.
    """
    return list(map(tuple, extension_rows(p, ())[0].argsort(axis=1).tolist()))


def _upset_counts(p: Poset) -> tuple[np.ndarray, np.ndarray]:
    """The up-sets of p as sorted masks, with each one's number of linear orders.

    These are exactly the sets of elements a walk can have left: it removes
    one minimal element per step, and it can remove any down-set first.
    They are built level by level from the empty set, each level adding to
    the previous one's masks every element whose successors they all hold,
    sorted and deduplicated.  Such an element is minimal in the new set, so
    each set's count sums its predecessors' counts: count(U) is the sum of
    count(U - e) over the minimal elements e of U (De Loof, De Meyer and
    De Baets, 2006).  int64 is exact for k <= COUNT_CAP, since 20! < 2^63.
    Past it, a level's counts sum to at most the full set's (each linear order
    ends in an order of one of its sets), so once they pass the rows a listing
    can hold, only the full set returns, counted one past those rows.
    """
    saturated = LISTING_BYTES // _row_bytes(p.k, 0) + 1
    bit = np.left_shift(1, np.arange(p.k, dtype=np.int64))
    above = _element_masks(p.leq)
    level, count = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    masks, counts = [level], [count]
    for _ in range(p.k):
        if p.k > COUNT_CAP and count.sum() >= saturated:  # below k times that: no overflow
            return np.array([(1 << p.k) - 1]), np.array([saturated])
        rows, es = np.nonzero((level[:, None] & (bit | above)) == above)
        child = level[rows] | bit[es]
        order = np.argsort(child)
        first = np.flatnonzero(np.ediff1d(child[order], to_begin=1))
        level, count = child[order][first], np.add.reduceat(count[rows][order], first)
        masks.append(level)
        counts.append(count)
    order = np.argsort(np.concatenate(masks))
    return np.concatenate(masks)[order], np.concatenate(counts)[order]


def count_extensions(p: Poset) -> int:
    """|L(P)| exactly, the full set's count over the reachable up-sets; k <= COUNT_CAP."""
    if p.k > COUNT_CAP:
        raise TooLarge(f"counting needs k <= {COUNT_CAP}, got {p.k}")
    return int(_upset_counts(p)[1][-1])


def extension_to_bits(e: Sequence[int], free_map: FreeBitMap) -> Bits:
    """Free-bit encoding of the order e: bit for pair (i, j) is 1 iff i precedes j."""
    pos = {elem: t for t, elem in enumerate(e)}
    return tuple(1 if pos[i] < pos[j] else 0 for i, j in free_map.pairs)


def bits_to_extension(bits: Bits, p: Poset) -> tuple[int, ...]:
    """Inverse of extension_to_bits; InvalidEncoding when no extension matches."""
    free_map = p.free_map
    if len(bits) != free_map.n or any(bit not in (0, 1) for bit in bits):
        raise InvalidEncoding(f"expected {free_map.n} free bits of 0 or 1, got {tuple(bits)}")
    pairs = (pair if bit == 1 else pair[::-1] for pair, bit in zip(free_map.pairs, bits))
    leq = _add_relations(p.leq, pairs, InvalidEncoding)
    # Every pair is now decided, so the elements' predecessor counts are 0..k-1.
    return tuple(np.argsort(leq.sum(axis=0)).tolist())


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


# Rows of one step of the batched walk: its peak memory is O(_WALK_CHUNK * k).
_WALK_CHUNK = 2048
# Each sampler's support cache keeps at most this many conditioned orders and bytes.
_CACHE_ORDERS = 128
_CACHE_BYTES = 64 << 20
# A table coordinate with at most this many flips is drawn by compares of u.
_FEW_FLIPS = 4


@dataclass(frozen=True)
class _Support:
    """What the draws under one conditioned order need.

    When extension_rows' listing fits LISTING_BYTES, the exact support
    table, one row per extension in extension_rows' order: `bits`, each
    free bit's values over the rows (n x rows, so one coordinate's values
    are contiguous), `cum`, the rows' cumulative probabilities, and
    `values`, the value guides of the coordinates drawn so far (see
    _value_guide).  With integer weights (extension_rows' totals), a biased
    table also keeps each row's `pos` and step `totals`, from which a child
    table recomputes its probabilities (see _ExtensionSampler._child).  A
    row costs n + 8 bytes, plus k for pos and k times the totals' itemsize.
    A coordinate's guide adds at most 32 bytes when its bit flips at most
    _FEW_FLIPS times over the rows, else the larger of 2 to 4 bytes a row
    and 64 to 128 a flip, the latter capped at 64 KB.
    Otherwise the batched walk's inputs: the conditioned poset's
    strict-predecessor masks and, for the uniform sampler, the up-sets the
    walk can reach, sorted, with the counts of linear orders that chose the walk.
    """

    bits: Optional[np.ndarray] = None
    cum: Optional[np.ndarray] = None
    pos: Optional[np.ndarray] = None
    totals: Optional[np.ndarray] = None
    below: Optional[np.ndarray] = None
    upsets: Optional[tuple[np.ndarray, np.ndarray]] = None
    values: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        arrays = (self.bits, self.cum, self.pos, self.totals, self.below)
        arrays += (*(self.upsets or ()), *self.values.values())
        return sum(a.nbytes for a in arrays if a is not None)


def _table(bits: np.ndarray, prob: np.ndarray, pos=None, totals=None) -> _Support:
    """The table support of rows with these bits and probabilities."""
    cum = np.cumsum(prob / prob.sum())
    cum[-1] = 1.0
    return _Support(bits=bits, cum=cum, pos=pos, totals=totals)


def _value_guide(bits: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """One coordinate's guide: where its bit flips, or its bit for each of G
    buckets of u, 2 where it varies.

    The bit flips after row r at u = cum[r], and the row that
    searchsorted(cum, u, side="right") picks has bits[0] flipped once per
    flip at or below u.  Up to _FEW_FLIPS flips, the guide is those cums
    (float64), which draw_coordinate compares u with.  Otherwise G is the
    least power of two of at least 2 per row and of 64 per flip, the latter
    capped at 2^16, so u * G and g / G are exact (Chen and Asau, 1974;
    Devroye 1986, III.2.4).  The u in [g / G, (g + 1) / G) pick rows that
    disagree exactly when a flip lies strictly inside the bucket; otherwise
    they share the bit of the row u = g / G picks: bits[0] flipped once per
    flip with ceil(cum[r] * G) <= g, counted by one bincount.  Rounding can
    leave a cum just above 1 before the last row; no u < 1 reaches it, so a
    flip there lies in no bucket and no compare holds.
    """
    at = cum[np.flatnonzero(bits[1:] != bits[:-1])]
    if len(at) <= _FEW_FLIPS:
        return at
    G = max(2 << (len(cum) - 1).bit_length(), min(64 << (len(at) - 1).bit_length(), 1 << 16))
    at = at * G
    flips = np.bincount(np.ceil(at).astype(np.intp), minlength=G + 1)[:G]
    values = (np.cumsum(flips, dtype=np.uint8) & 1) ^ bits[0]  # uint8 keeps the parity
    inside = at[(at < G) & (at != np.floor(at))]
    values[inside.astype(np.intp)] = 2
    return values


class _ExtensionSampler(ConditionalSampler):
    """Shared machinery for self-reducible extension samplers.

    Conditioning is realized by folding the fixed bits into the poset and
    drawing an extension of the conditioned order; results are encoded
    against the ORIGINAL free map, so they agree with the condition.  A
    contradictory condition means a zero-mass subcube and falls back to
    uniform bits on the free coordinates.

    Every draw, single or batched, takes one of two paths, and one rule
    picks it: a table whenever extension_rows would list the conditioned
    order within LISTING_BYTES, else the walk (see _build_support).
    The table path looks up an exact support table per conditioned order,
    which a child of the last condition met filters from that condition's
    table instead of listing it again: a draw takes
    one uniform u and the row that a binary search of u in cum picks;
    draw_coordinate gets that row's bit from the coordinate's value guide:
    by comparing u with the few cums where the bit flips, or from u's
    bucket, searching only for the u whose bucket holds rows that disagree.
    The batched walk advances all rows of a call together, one element per
    step, each picking among its current minimal elements by weight
    (biased) or by the number of extensions that start with each (uniform,
    counted over the up-sets the walk can reach).  Both paths give the same
    law, so the bound limits a table build's memory, not the draw's speed.
    A support depends only on the conditioned order, so each sampler keeps
    one support per order in an LRU cache of at most _CACHE_ORDERS
    conditioned orders and _CACHE_BYTES bytes of arrays, value guides
    included; the newest support stays even when it alone is larger.  A
    contradictory condition has no support and never enters the cache.
    The sampler also remembers the last condition it met and its order
    (see _order).  One lock guards the cache, the byte count, the guides
    and that slot, so threads drawing from one sampler build each support
    once; their interleaved conditions only send more of them to the root.
    """

    _float_weights: Optional[tuple[float, ...]] = None  # walk weights; None is uniform

    def __init__(self, poset: Poset):
        if poset.k > ELEMENT_CAP:
            raise TooLarge(f"sampling needs k <= {ELEMENT_CAP}, got {poset.k}")
        self.poset = poset
        self.free_map = poset.free_map
        self.n = self.free_map.n
        self._pairs = np.array(self.free_map.pairs, dtype=np.intp).reshape(-1, 2)
        # Least recent first, keyed by the conditioned order's matrix bytes.
        self._cache: dict[bytes, _Support] = {}
        self._cache_bytes = 0
        # The last condition met, its order (None when contradictory) and key:
        # first the full cube's.
        self._last = (Condition(), poset, poset.leq.tobytes())
        self._cache_lock = threading.Lock()
        self._row_bytes = _row_bytes(poset.k, self.n, _totals_dtype(self._float_weights))

    def _support(self, condition: Condition, coord: Optional[int] = None) -> Optional[_Support]:
        """The cached support of the condition's order, built on a miss.

        A miss on a child of the last condition met passes _build_support
        its parent's support, while the cache still holds it.  None for a
        contradictory condition, which leaves the cache as it is.  With a
        coordinate, a table support also holds its value guide.
        """
        with self._cache_lock:
            pc, key, origin = self._order(condition)
            if pc is None:
                return None
            cache = self._cache
            try:
                support = cache[key] = cache.pop(key)  # now the most recent
            except KeyError:
                parent = None if origin is None else cache.get(origin[0])
                support = cache[key] = self._build_support(pc, parent, origin)
                self._cache_bytes += support.nbytes
            if support.cum is not None and coord is not None and coord not in support.values:
                guide = support.values[coord] = _value_guide(support.bits[coord], support.cum)
                self._cache_bytes += guide.nbytes
            while len(cache) > 1 and (
                len(cache) > _CACHE_ORDERS or self._cache_bytes > _CACHE_BYTES
            ):
                self._cache_bytes -= cache.pop(next(iter(cache))).nbytes
        return support

    def _order(
        self, condition: Condition
    ) -> tuple[Optional[Poset], Optional[bytes], Optional[tuple]]:
        """The conditioned order, its cache key and its origin; pc and key are
        None when contradictory.

        The chain rule asks for x's prefixes in order, each right after its
        parent (the same condition less its last bit), so the last condition
        met is the only one worth remembering.  Its child orients that one
        pair in its order, and the origin names it: (the last order's key,
        that order, the child's last coordinate and bit); any other
        condition's origin is None.  When the earlier bits already imply the
        pair, orient_pair returns the same poset, and the child keeps the key
        without hashing.  A child of a contradiction is one too.  Any other
        condition is applied to the root poset.
        """
        last, parent, key = self._last
        if condition.fixed == last.fixed:
            return parent, key, None
        origin = None
        try:
            if condition.fixed[:-1] != last.fixed:
                pc = apply_condition(self.poset, condition)
            elif parent is None:
                pc = None
            else:
                idx, bit = condition.fixed[-1]
                pc = orient_pair(parent, *self.free_map.pairs[idx], bit)
                origin = key, parent, idx, bit
        except ContradictionError:
            pc = None
        if pc is not parent:
            key = None if pc is None else pc.leq.tobytes()
        self._last = condition, pc, key
        return pc, key, origin

    def _build_support(self, pc: Poset, parent: Optional[_Support] = None, origin=None) -> _Support:
        """The support of a conditioned poset: a table when its listing fits, else the walk's.

        A child of a table (parent, the cached support of origin's order)
        fits, its extensions being some of the parent's rows: it filters them
        when they carry what its probabilities need (always for the uniform
        sampler, with pos and totals for the biased one), else it is listed.
        Any other order is counted: its listing's last level is its largest,
        so it walks exactly when count x _row_bytes passes LISTING_BYTES.
        """
        w = self._float_weights
        if parent is None or parent.cum is None:
            upsets = _upset_counts(pc)
            if int(upsets[1][-1]) * self._row_bytes > LISTING_BYTES:
                return _Support(below=pc.below_masks, upsets=None if w else upsets)
        elif w is None or parent.totals is not None:
            return self._child(parent, *origin[1:])
        pos, bits, prob, totals = extension_rows(pc, self._pairs, w)
        return _table(bits, prob, None if totals is None else pos, totals)

    def _child(self, parent: _Support, order: Poset, coord: int, bit: int) -> _Support:
        """The table of order with free pair coord oriented by bit, from order's table.

        Its extensions are the parent's rows with that bit, in the same
        lexicographic order, so a uniform table needs nothing more.  With
        the pair oriented a before b, a row's step total loses w[b] exactly
        at the steps where b was minimal and a is still to be placed: after
        the step of b's last predecessor in order, up to the step of a.  The
        totals are integers, so the probabilities are the floats the listing
        computes, each row's product of w[e] / total in step order.
        """
        keep = parent.bits[coord] == bit
        bits = parent.bits[:, keep]
        if parent.totals is None:  # uniform
            return _table(bits, np.ones(bits.shape[1]))
        i, j = self.free_map.pairs[coord]
        a, b = (i, j) if bit else (j, i)
        pos, totals = parent.pos[keep], parent.totals[keep]
        rows, k = pos.shape
        before_b = np.flatnonzero(order.leq[:, b])  # with b itself
        last = pos[:, before_b[before_b != b]].max(axis=1, initial=-1)
        step = np.arange(k)
        lose = (last[:, None] < step) & (step <= pos[:, a, None])
        np.subtract(totals, totals.dtype.type(self._float_weights[b]), out=totals, where=lose)
        ratio = np.empty(pos.shape)  # the weight of the element row r places at step t
        ratio.ravel()[pos + np.arange(0, rows * k, k)[:, None]] = self._float_weights
        ratio /= totals
        return _table(bits, np.cumprod(ratio, axis=1, out=ratio)[:, -1], pos, totals)

    def _walk(self, support: _Support, m: int, rng: np.random.Generator):
        """Yield (first row, positions) for m walks, _WALK_CHUNK walks at a time.

        positions[e, r] is the step at which walk r placed element e; arrays
        are element-major, so each per-element operation runs over all walks.
        At each step the pick is the first minimal element whose cumulative
        weight exceeds u * total.  Biased, an element weighs its weight and
        u is uniform.  Uniform, it weighs the count of the up-set left
        without it, and u * total is an exact integer in [0, total).  If
        rounding leaves no weight above it, the pick is the walk's last
        minimal element.
        """
        below, k = support.below, len(support.below)
        upsets, counts = support.upsets or (None, None)
        bit = np.left_shift(1, np.arange(k, dtype=np.int64))[:, None]
        w = np.array(self._float_weights or ())[:, None]
        need = bit | below[:, None]  # e is minimal in mask iff mask & need[e] == bit[e]
        for first in range(0, m, _WALK_CHUNK):
            walks = min(_WALK_CHUNK, m - first)
            mask = np.full(walks, (1 << k) - 1, dtype=np.int64)
            pos = np.empty((k, walks), dtype=np.int8)
            col = np.arange(walks)
            for step in range(k):
                minimal = (mask & need) == bit
                if upsets is None:
                    cum = np.where(minimal, w, 0.0)
                else:  # looked up only where e is minimal: mask - e is an up-set there
                    es, rs = np.divmod(np.flatnonzero(minimal), walks)
                    cum = np.zeros(minimal.shape, dtype=np.int64)
                    cum[es, rs] = counts[np.searchsorted(upsets, mask[rs] ^ bit[es, 0])]
                for e in range(1, k):
                    cum[e] += cum[e - 1]
                if upsets is None:
                    u = rng.random(walks) * cum[-1]
                else:
                    u = rng.integers(0, cum[-1])
                pick = np.add.reduce(cum <= u, axis=0, dtype=np.int8)
                stuck = pick == k
                if stuck.any():
                    pick[stuck] = k - 1 - minimal[::-1, stuck].argmax(axis=0)
                pos[pick, col] = step
                mask ^= bit[pick, 0]
            yield first, pos

    def _draw(
        self,
        support: Optional[_Support],
        condition: Condition,
        cols,
        m: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Free bits cols (a slice, or one coordinate) of m conditional draws."""
        if support is None:
            return uniform_fallback_many(condition, self.n, m, rng)[:, cols]
        if support.cum is not None:
            row = np.searchsorted(support.cum, rng.random(m), side="right")
            return support.bits[cols, row].T
        pairs = self._pairs[cols]
        out = np.empty((m,) + pairs.shape[:-1], dtype=np.uint8)
        for first, pos in self._walk(support, m, rng):
            out[first : first + pos.shape[1]] = (pos[pairs[..., 0]] < pos[pairs[..., 1]]).T
        return out

    def draw_many(self, condition: Condition, m: int, rng: np.random.Generator) -> np.ndarray:
        return self._draw(self._support(condition), condition, slice(None), m, rng)

    def draw_coordinate(
        self, condition: Condition, coord: int, m: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Free bit coord of m conditional draws, draw_many's column from the
        same uniforms; a bit that never flips draws them too.  On a table, the
        bit of the row searchsorted(cum, u, side="right") picks: bits[0]
        flipped once per flip at or below u, or u's bucket's value, searched
        for only where the bucket's rows disagree."""
        support = self._support(condition, coord)
        if support is None or support.cum is None:
            return self._draw(support, condition, coord, m, rng)
        guide, u, bits = support.values[coord], rng.random(m), support.bits[coord]
        if guide.dtype != np.uint8:
            out = np.full(m, bits[0], dtype=np.uint8)
            for at in guide:
                out ^= u >= at
            return out
        u *= len(guide)  # exact, and undone exactly: a power of two
        out = guide[u.astype(np.intp)]
        mixed = np.flatnonzero(out == 2)
        if len(mixed):
            out[mixed] = bits[np.searchsorted(support.cum, u[mixed] / len(guide), side="right")]
        return out


class UniformExtensionSampler(_ExtensionSampler, KnownDistribution):
    """Exactly uniform draws over the linear extensions of a poset.

    At every step the next element is chosen among the current minimal
    elements with probability proportional to the number of extensions that
    start with it, so the draw is uniform without rejection.  Conditioning
    on fixed bits keeps it uniform over the surviving extensions, which is
    precisely the subcube-conditional distribution.  Also serves as the
    known distribution: every valid encoding has mass 1/|extensions|.
    """

    def __init__(self, poset: Poset):
        super().__init__(poset)
        self.total = count_extensions(poset)

    def mass(self, x: Bits) -> float:
        try:
            bits_to_extension(tuple(x), self.poset)
        except InvalidEncoding:
            return 0.0
        return 1.0 / self.total


class BiasedExtensionSampler(_ExtensionSampler):
    """Greedy weighted draws: next element picked among the current minimal
    elements with probability proportional to its weight.

    A synthetic non-uniform sampler used as the unknown side in tests and
    experiments.  Conditioning runs the same greedy walk on the conditioned
    poset, which on many posets is not the unconditioned law conditioned.
    So the product of x's prefix marginals, P~(x), differs from P(x), and
    the estimator converges to T = E_{x~P}[max(0, 1 - Q(x)/P~(x))], not to
    TV(P, Q): with equal weights against uniform, T is 1/12 and TV 1/6 on
    avgdeg_1_005_3, and T 0.3233 and TV 0.3945 on avgdeg_1_010_4.
    """

    def __init__(self, poset: Poset, weights: Sequence):
        self._float_weights = check_weights(poset.k, weights)  # before the row bytes
        super().__init__(poset)


def uniform_extension_sampler(p: Poset, enum_cap: object = None) -> UniformExtensionSampler:
    """enum_cap is ignored; it goes once the benchmark stops passing it (ROADMAP item 1)."""
    return UniformExtensionSampler(p)


def biased_extension_sampler(p: Poset, weights: Sequence) -> BiasedExtensionSampler:
    return BiasedExtensionSampler(p, weights)
