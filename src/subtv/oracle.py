"""Brute-force exact ground truth for desk-scale instances.

Everything here is computed in exact rational arithmetic so that the
statistical tests can anchor their tolerances on values with zero numeric
error.  Reals appear only when callers compare against estimator output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import Bits, Condition
from .errors import DimensionMismatch, TooLarge, ZeroMassPrefix
from .posets import ENUM_CAP, Poset, check_weights, extension_rows


@dataclass(frozen=True)
class ExactDistribution:
    """A distribution over free-bit encodings with exact rational masses."""

    support: dict[Bits, Fraction]
    n: int

    def mass(self, x: Bits) -> Fraction:
        return self.support.get(tuple(x), Fraction(0))


def _greedy_step_products(
    below: list[int], order: tuple[int, ...], weights: Sequence[Fraction]
) -> Fraction:
    mask = (1 << len(below)) - 1
    prob = Fraction(1)
    for e in order:
        minimals = [m for m in range(len(below)) if mask >> m & 1 and not below[m] & mask]
        if len(minimals) > 1:
            prob *= weights[e] / sum(weights[m] for m in minimals)
        mask ^= 1 << e
    return prob


def exact_distribution(
    p: Poset,
    kind: str,
    weights: Optional[Sequence] = None,
    cap: int = ENUM_CAP,
    free_map=None,
) -> ExactDistribution:
    """The exact output distribution of a synthetic extension sampler.

    The extensions and their free bits come from posets.extension_rows,
    as the samplers' tables do; the law is computed here, in Fractions.
    kind 'uniform': mass 1/|extensions| per extension.  kind 'biased': the
    product of greedy step ratios per extension, for per-element weights
    that the biased sampler accepts (posets.check_weights, ValueError
    otherwise), taken exactly.  Pass the original poset's free_map to encode
    the distribution of a conditioned poset on the full coordinate set.
    """
    if kind not in ("uniform", "biased"):
        raise ValueError(f"unknown sampler kind {kind!r}")
    if kind == "biased":  # before the cap, so bad weights never enumerate
        check_weights(p.k, weights)
    if p.k > cap:
        raise TooLarge(f"enumeration needs k <= {cap}, got {p.k}")
    fm = free_map if free_map is not None else p.free_map
    pos, bits, _ = extension_rows(p, fm.pairs)
    keys = list(map(tuple, bits.T.tolist()))
    if kind == "uniform":
        support = dict.fromkeys(keys, Fraction(1, len(keys)))
    else:
        ws = [Fraction(w) for w in weights]  # exact for floats too
        below = p.below_masks.tolist()
        orders = pos.argsort(axis=1).tolist()
        support = {x: _greedy_step_products(below, o, ws) for x, o in zip(keys, orders)}
    assert sum(support.values()) == 1
    return ExactDistribution(support=support, n=fm.n)


def exact_tv(p_dist: ExactDistribution, q_dist: ExactDistribution) -> Fraction:
    """Total variation distance as the sum of positive pointwise deviations."""
    if p_dist.n != q_dist.n:
        raise DimensionMismatch(f"dimensions differ: {p_dist.n} vs {q_dist.n}")
    # a point outside p's support adds max(0, -q) = 0
    q = q_dist.support
    deviations = (m - q.get(x, 0) for x, m in p_dist.support.items())
    return sum((d for d in deviations if d > 0), Fraction(0))


def exact_marginal(dist: ExactDistribution, prefix: Condition, coord: int) -> Fraction:
    """Exact Pr[bit coord == 1 | prefix] under dist."""
    kept = conditioned(dist, prefix).support
    return sum((m for x, m in kept.items() if x[coord] == 1), Fraction(0))


def conditioned(dist: ExactDistribution, prefix: Condition) -> ExactDistribution:
    """dist restricted to the strings agreeing with the prefix, renormalized."""
    kept = {x: m for x, m in dist.support.items() if prefix.agrees(x) and m > 0}
    total = sum(kept.values(), Fraction(0))
    if total == 0:
        raise ZeroMassPrefix("prefix has zero mass under the distribution")
    return ExactDistribution({x: m / total for x, m in kept.items()}, dist.n)
