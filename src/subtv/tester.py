"""Accept/reject identity testing layered on the distance estimator.

The tester estimates the TV distance to additive error (eta - epsilon)/2
and compares it against the midpoint threshold (eta + epsilon)/2: samplers
within epsilon of the known distribution pass, samplers at least eta away
fail, each with probability at least 1 - delta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ConditionalSampler, KnownDistribution
from .errors import InvalidParameter
from .estimator import EstimateReport, estimate_tv

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass(frozen=True)
class TesterParams:
    __test__ = False  # keep pytest from collecting the Test* name

    epsilon: float
    eta: float
    delta: float
    zeta: float
    delta_t: float
    threshold: float


@dataclass(frozen=True)
class Verdict:
    decision: str
    estimate: EstimateReport
    params: TesterParams


def decide(estimate: EstimateReport, params: TesterParams) -> str:
    """Pure threshold rule; a tie at the threshold accepts."""
    return REJECT if estimate.dtv_estimate > params.threshold else ACCEPT


def identity_test(
    sampler: ConditionalSampler,
    known: KnownDistribution,
    epsilon: float,
    eta: float,
    delta: float,
    seed: int = 0,
    *,
    threads: int = 1,
    max_total_samples: int | None = None,
) -> Verdict:
    """ACCEPT when the sampler is epsilon-close to the known distribution,
    REJECT when it is eta-far, each with probability at least 1 - delta.

    threads is accepted and ignored, as in estimate_tv; it goes once the
    benchmark stops passing it (ROADMAP item 1).
    """
    if not 0.0 < epsilon < eta <= 1.0:
        raise InvalidParameter(
            f"need 0 < epsilon < eta <= 1, got epsilon={epsilon}, eta={eta}"
        )
    if not 0.0 < delta < 0.5:
        raise InvalidParameter(f"delta must lie in (0, 1/2), got {delta}")
    params = TesterParams(
        epsilon=epsilon,
        eta=eta,
        delta=delta,
        zeta=(eta - epsilon) / 2.0,
        delta_t=2.0 * delta,
        threshold=(eta + epsilon) / 2.0,
    )
    report = estimate_tv(
        sampler,
        known,
        params.zeta,
        params.delta_t,
        seed,
        max_total_samples=max_total_samples,
    )
    return Verdict(decision=decide(report, params), estimate=report, params=params)
