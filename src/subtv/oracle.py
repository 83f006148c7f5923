"""Brute-force exact ground truth for desk-scale instances.

Everything here is computed in exact rational arithmetic so that the
statistical tests can anchor their tolerances on values with zero numeric
error.  Reals appear only when callers compare against estimator output.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .core import Bits, Condition
from .errors import DimensionMismatch, IndexOutOfRange, TooLarge, ZeroMassPrefix
from .posets import Poset, check_weights, extension_rows

EXACT_CAP = 10  # elements listed by default; cap= raises it


class ExactDistribution:
    """A distribution over free-bit encodings with exact rational masses.

    Built from `support`, a dict from points (tuples of n 0/1 ints) to
    their masses.  The points are held keyed by their bytes, one byte per
    bit, in `points`; mass, exact_tv and exact_marginal read only that map.
    `support`, the tuple-keyed dict, is built from it on first read and
    kept: the same Fraction objects in the same order.  Two distributions
    are equal when their n and their point masses are.
    """

    def __init__(self, support: dict[Bits, Fraction], n: int):
        self.n = n
        self.points: dict[bytes, Fraction] = {bytes(x): m for x, m in support.items()}

    @classmethod
    def _of_points(cls, points: dict[bytes, Fraction], n: int) -> ExactDistribution:
        dist = cls.__new__(cls)
        dist.n, dist.points = n, points
        return dist

    @cached_property
    def support(self) -> dict[Bits, Fraction]:
        return dict(zip(map(tuple, self.points), self.points.values()))

    def mass(self, x: Sequence[int]) -> Fraction:
        """x's mass; 0 for a point of another length or with a bit outside {0, 1}."""
        x = np.asarray(x)
        if x.shape != (self.n,) or ((x != 0) & (x != 1)).any():
            return Fraction(0)
        return self.points.get(x.astype(np.uint8).tobytes(), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return self.n == other.n and self.points == other.points


def exact_distribution(
    p: Poset,
    kind: str,
    weights: Optional[Sequence] = None,
    cap: int = EXACT_CAP,
    free_map=None,
) -> ExactDistribution:
    """The exact output distribution of a synthetic extension sampler.

    The extensions and their free bits come from posets.extension_rows,
    as the samplers' tables do; the law is computed here exactly, in integers
    and one Fraction per distinct mass, and checked to sum to 1 over the
    histogram of those masses.  The points are keyed by their bytes (see
    ExactDistribution), taken from the rows' bits in one pass; the
    tuple-keyed support is built only if a caller reads it.
    TooLarge when p has more than cap elements (EXACT_CAP unless raised),
    and, under any cap, from extension_rows past posets.LISTING_BYTES.
    kind 'uniform': mass 1/|extensions| per extension.  kind 'biased': the
    product of greedy step ratios per extension, for per-element weights
    that the biased sampler accepts (posets.check_weights, ValueError
    otherwise), taken exactly.  With the weights as integers a[e] over
    their least common denominator, that product is prod(a) / prod_t A(S_t),
    A(S) being the sum of a over the minimal elements of the set S_t a row
    leaves after step t: each row's denominator is an integer, multiplied
    once a step by its set's total, computed once per distinct set.  Pass
    the original poset's free_map to encode the distribution of a
    conditioned poset on the full coordinate set.
    """
    if kind not in ("uniform", "biased"):
        raise ValueError(f"unknown sampler kind {kind!r}")
    if kind == "biased":  # before the cap, so bad weights never enumerate
        check_weights(p.k, weights)
    if p.k > cap:
        raise TooLarge(f"enumeration needs k <= {cap}, got {p.k}")
    fm = free_map if free_map is not None else p.free_map
    pos, bits, _, _ = extension_rows(p, fm.pairs)
    # one bytes object per row: no tuple of n ints to build, hash or leave
    # for the garbage collector to walk; the void view needs n > 0
    rows = np.ascontiguousarray(bits.T)
    keys = rows.view((np.void, fm.n)).ravel().tolist() if fm.n else [b""] * len(rows)
    if kind == "uniform":
        num, dens = 1, [len(keys)] * len(keys)
    else:
        ws = [Fraction(w) for w in weights]  # exact for floats too
        lcd = math.lcm(*(w.denominator for w in ws))
        a = np.array([w.numerator * (lcd // w.denominator) for w in ws], dtype=object)
        bit = np.left_shift(1, np.arange(p.k, dtype=np.int64))
        mask = np.full(len(keys), (1 << p.k) - 1, dtype=np.int64)
        den = np.ones(len(keys), dtype=object)
        for es in pos.argsort(axis=1).T:  # each row's element at this step
            sets, row_set = np.unique(mask, return_inverse=True)
            minimal = (sets[:, None] & (bit | p.below_masks)) == bit
            den *= np.where(minimal, a, 0).sum(axis=1)[row_set]  # Python ints
            mask ^= bit[es]
        num, dens = math.prod(a.tolist()), den.tolist()
    count = Counter(dens)  # rows per denominator, in the rows' order
    mass = {d: Fraction(num, d) for d in count}
    points = dict(zip(keys, map(mass.__getitem__, dens)))
    # Summed in the order of each mass's first row: in the rows' order each
    # block of rows that share a prefix sums to a short fraction, which keeps
    # the partial sums short; a count of 1 skips a Fraction product.
    assert sum(m * c if c > 1 else m for m, c in zip(mass.values(), count.values())) == 1
    return ExactDistribution._of_points(points, fm.n)


def exact_tv(p_dist: ExactDistribution, q_dist: ExactDistribution) -> Fraction:
    """Total variation distance as the sum of positive pointwise deviations.

    The sum runs over distinct mass pairs: p's points are grouped by the
    identities of their two masses, (p(x), q(x)), in C-level passes, and each
    pair is subtracted once and weighted by its count of points.
    exact_distribution shares one Fraction per distinct mass, so the
    biased-equal law of avgdeg_1_010_4 against uniform takes 40
    subtractions, not one per extension (4,262).
    Equal values held by distinct objects form separate groups, so the sum is
    the pointwise one for any distribution; no Fraction is hashed.  q's
    masses are looked up by p's bytes keys, whose hashes the bytes objects
    keep, so each point is hashed once per distribution.
    """
    if p_dist.n != q_dist.n:
        raise DimensionMismatch(f"dimensions differ: {p_dist.n} vs {q_dist.n}")
    # a point outside p's support adds max(0, -q) = 0
    pm, zero = list(p_dist.points.values()), Fraction(0)
    qm = list(map(q_dist.points.get, p_dist.points, repeat(zero)))
    mass = dict(zip(map(id, pm), pm)) | dict(zip(map(id, qm), qm))
    counts = Counter(zip(map(id, pm), map(id, qm)))  # points per pair of masses
    deviations = ((mass[i] - mass[j], c) for (i, j), c in counts.items())
    return sum((d * c for d, c in deviations if d > 0), zero)


def exact_marginal(dist: ExactDistribution, prefix: Condition, coord: int) -> Fraction:
    """Exact Pr[bit coord == 1 | prefix] under dist; IndexOutOfRange for a
    coordinate outside [0, n)."""
    if not 0 <= coord < dist.n:
        raise IndexOutOfRange(f"coordinate {coord} outside dimension {dist.n}")
    kept = [(x, m) for x, m in dist.points.items() if prefix.agrees(x)]
    total = sum((m for _, m in kept), Fraction(0))
    if total == 0:
        raise ZeroMassPrefix("prefix has zero mass under the distribution")
    return sum((m for x, m in kept if x[coord] == 1), Fraction(0)) / total
