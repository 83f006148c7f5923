"""Relative-error estimation of one conditional bit marginal.

The scheme races successes against a Gamma clock: draw conditional samples
and count draws whose target coordinate equals ``head`` until the k-th
success, then draw the clock r ~ Gamma(draws, 1).  The clock is the sum of
one Exp(1) variate per draw; those variates are independent of the draws,
so given the draw count it is exactly Gamma(draws, 1) and one variate
suffices.  The estimate (k - 1) / r is an unbiased estimator of the
marginal p.  For k >= 3 ln(2/delta) / eps^2 the output is within a
(1 +/- eps) multiplicative factor of p with probability at least 1 - delta,
and the expected draw count is k / p.

Draws are batched through ``ConditionalSampler.draw_coordinate`` so that
samplers with a vectorized path keep the inner loop in numpy; the draw count
stops at the k-th success, exactly as in the one-draw-at-a-time loop.  The
first batch is exactly k draws, the fewest any run needs (and at p = 1 the
whole run).  Each later batch is the expected number of draws still needed
at the observed success rate, (k - s) / rate, plus three negative-binomial
standard deviations and a small floor, and never more than the draws made
so far, so a noisy early rate at most doubles the total.  The draw count is
the position of the k-th success in an i.i.d. stream, so batch sizes do not
change its law; only the draws of the last batch past the k-th success are
wasted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Condition, ConditionalSampler
from .errors import IndexOutOfRange, InvalidParameter

# Per-call allocation cap, not a draw budget.
_MAX_BATCH = 1 << 22
# Margin of a later batch over its expected draws: standard deviations of the
# remaining draw count, and a floor that keeps the last batches from being
# so small that the per-call cost of drawing outweighs the draws saved.
_SPREAD = 3.0
_FLOOR = 64


@dataclass(frozen=True)
class GbasResult:
    """Outcome of one marginal estimation.

    p_hat equals (k - 1) / r exactly; draws is the position of the k-th
    success in the draw stream, so at least k.
    """

    p_hat: float
    draws: int
    r: float


def gbas_estimate(
    sampler: ConditionalSampler,
    condition: Condition,
    coord: int,
    head: int,
    k: int,
    rng: np.random.Generator,
) -> GbasResult:
    """Estimate p = Pr[draw(condition)[coord] == head] from k successes.

    coord must lie in [0, sampler.n) and k must be an integer of at least 2.
    Draws continue until the k-th success, so at p = 0 they never stop
    unless the sampler raises; estimate_tv's budget is such a stop.
    """
    if not isinstance(k, (int, np.integer)) or k < 2:
        raise InvalidParameter(f"k must be an integer of at least 2, got {k}")
    if not 0 <= coord < sampler.n:
        raise IndexOutOfRange(f"coordinate {coord} outside dimension {sampler.n}")
    if head not in (0, 1):
        raise InvalidParameter(f"head must be 0 or 1, got {head}")
    if not condition.is_free(coord):
        raise InvalidParameter(f"coordinate {coord} is fixed by the condition")

    s = 0
    draws = 0
    batch = min(int(k), _MAX_BATCH)
    while True:
        hit = np.asarray(sampler.draw_coordinate(condition, coord, batch, rng)) == head
        hits = int(np.count_nonzero(hit))
        if s + hits >= k:
            # The k-th success lands inside this batch; stop the count at it.
            draws += int(np.flatnonzero(hit)[k - s - 1]) + 1
            break
        s += hits
        draws += batch
        # With no success yet, one is assumed; the cap at the draws so far
        # then doubles the total.
        need = k - s
        rate = max(s, 1) / draws
        expect = need / rate + _SPREAD * math.sqrt(need * (1 - rate)) / rate
        batch = min(int(expect) + _FLOOR, draws, _MAX_BATCH)
    r = rng.gamma(draws)
    return GbasResult(p_hat=(k - 1) / r, draws=draws, r=r)
