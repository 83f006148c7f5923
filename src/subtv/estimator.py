"""Point-mass estimation by the chain rule and the outer TV-distance estimator.

The mass of a drawn string x under the unknown sampler is estimated as the
product of its n conditional bit marginals, each obtained by conditioning
the sampler on the corresponding prefix of x.  The TV distance from a known
distribution Q is then the empirical mean of max(0, 1 - Q(x)/p_hat(x)) over
unconditioned draws x, which converges to the positive-part characterization
of the distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Bits,
    ConditionalSampler,
    FULL_CUBE,
    KnownDistribution,
    evaluate_mass,
    prefix_condition,
    rng_stream,
)
from .errors import BudgetExhausted, DimensionMismatch, InvalidParameter
from .gbas import GbasResult, gbas_estimate


@dataclass(frozen=True)
class EstimatorParams:
    """Derived working parameters for one estimation run.

    alpha outer samples, each mass-estimated with per-point relative error
    gamma at confidence delta_prime, using k successes per marginal.
    """

    n: int
    zeta: float
    delta: float
    alpha: int
    gamma: float
    delta_prime: float
    k: int


def derive_params(n: int, zeta: float, delta: float) -> EstimatorParams:
    """Map the target tolerance/confidence onto the inner-loop parameters."""
    if not 0.0 < zeta < 1.0:
        raise InvalidParameter(f"zeta must lie in (0, 1), got {zeta}")
    if not 0.0 < delta < 1.0:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    if n < 1:
        raise InvalidParameter(f"dimension must be at least 1, got {n}")
    alpha = math.ceil((2.0 / zeta**2) * math.log(4.0 / delta))
    gamma = zeta / (1.11 * (2.0 + zeta))
    delta_prime = delta / (2.0 * alpha)
    k = math.ceil((3.0 * n / gamma**2) * math.log(2.0 * n / delta_prime))
    return EstimatorParams(
        n=n, zeta=zeta, delta=delta, alpha=alpha, gamma=gamma, delta_prime=delta_prime, k=k
    )


@dataclass(frozen=True)
class MassEstimate:
    """Chain-rule estimate of one point mass: the product of marginal estimates."""

    p_hat_x: float
    marginals: tuple[GbasResult, ...]
    draws: int


def estimate_mass(
    sampler: ConditionalSampler,
    x: Bits,
    params: EstimatorParams,
    rng,
) -> MassEstimate:
    """Estimate the sampler's mass at x by conditioning on each prefix of x.

    Marginal i is the probability that a draw conditioned on x's first i
    bits agrees with x on coordinate i.
    """
    n = len(x)
    if n != params.n:
        raise DimensionMismatch(f"point has dimension {n}, params expect {params.n}")
    marginals = []
    for i in range(n):
        cond = prefix_condition(x, i)
        marginals.append(gbas_estimate(sampler, cond, i, x[i], params.k, rng))
    p_hat_x = 1.0
    for m in marginals:
        p_hat_x *= m.p_hat
    return MassEstimate(
        p_hat_x=p_hat_x, marginals=tuple(marginals), draws=sum(m.draws for m in marginals)
    )


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one TV-distance estimation run."""

    dtv_estimate: float
    total_samples: int
    per_sample_terms: tuple[float, ...]
    params: EstimatorParams
    seed: int


class _Budgeted(ConditionalSampler):
    """The sampler, held to a budget: a request that would take the draws made
    past it raises BudgetExhausted before it is made, and none is shortened."""

    def __init__(self, sampler: ConditionalSampler, budget: float, terms: list[float]):
        self.sampler, self.n, self.budget, self.terms = sampler, sampler.n, budget, terms
        self.made = 0

    def _take(self, m: int) -> None:
        if self.made + m > self.budget:
            raise BudgetExhausted(
                f"{self.budget}-sample budget exhausted", draws=self.made, partial_terms=self.terms
            )
        self.made += m

    def draw_many(self, condition, m, rng):
        self._take(m)
        return self.sampler.draw_many(condition, m, rng)

    def draw_coordinate(self, condition, coord, m, rng):
        self._take(m)
        return self.sampler.draw_coordinate(condition, coord, m, rng)


def _one_term(
    sampler: ConditionalSampler,
    known: KnownDistribution,
    params: EstimatorParams,
    seed: int,
    iteration: int,
) -> tuple[float, int]:
    rng = rng_stream(seed, iteration)
    x = sampler.draw(FULL_CUBE, rng)
    est = estimate_mass(sampler, x, params, rng)
    q = evaluate_mass(known, x)
    term = max(0.0, 1.0 - q / est.p_hat_x)
    return term, est.draws + 1


def estimate_tv(
    sampler: ConditionalSampler,
    known: KnownDistribution,
    zeta: float,
    delta: float,
    seed: int = 0,
    *,
    threads: int = 1,
    max_total_samples: int | None = None,
) -> EstimateReport:
    """Estimate the TV distance between the sampler and the known distribution.

    With probability at least 1 - delta the result is within an additive
    zeta of the true distance.  Iteration j always uses stream (seed, j),
    so the report is a pure function of the arguments.  max_total_samples
    (a non-negative integer, or None) bounds the draws made: a draw request
    that would pass it raises BudgetExhausted with the draws made and the
    finished points' terms, a prefix of the unbudgeted run's.  Draws made
    include the unused tail of each marginal's last batch, which
    total_samples does not count.  threads is accepted and ignored: the
    loop runs on the calling thread, and the keyword goes once the
    benchmark stops passing it (ROADMAP item 1).
    """
    if sampler.n != known.n:
        raise DimensionMismatch(f"sampler has n={sampler.n}, known has n={known.n}")
    if seed < 0:  # a seed sequence takes only non-negative integers
        raise InvalidParameter(f"seed must be at least 0, got {seed}")
    limit = max_total_samples
    if limit is not None and not (limit >= 0 and float(limit).is_integer()):
        raise InvalidParameter(f"max_total_samples must be a non-negative integer, got {limit}")
    params = derive_params(sampler.n, zeta, delta)
    terms: list[float] = []
    budgeted = _Budgeted(sampler, math.inf if limit is None else limit, terms)
    total = 0
    for j in range(params.alpha):
        term, draws = _one_term(budgeted, known, params, seed, j)
        terms.append(term)
        total += draws
    return EstimateReport(
        dtv_estimate=sum(terms) / len(terms),
        total_samples=total,
        per_sample_terms=tuple(terms),
        params=params,
        seed=seed,
    )
