from fractions import Fraction

import pytest

from subtv import (
    ACCEPT,
    REJECT,
    Poset,
    biased_extension_sampler,
    exact_distribution,
    exact_tv,
    identity_test,
    uniform_extension_sampler,
)
from subtv.errors import InvalidParameter
from subtv.tester import TesterParams, decide


def test_parameter_arithmetic(figure1):
    known = uniform_extension_sampler(figure1)
    verdict = identity_test(known, known, 0.01, 0.61, 0.1, seed=0)
    assert verdict.params.zeta == pytest.approx(0.3)
    assert verdict.params.threshold == pytest.approx(0.31)
    assert verdict.params.delta_t == pytest.approx(0.2)
    assert verdict.estimate.params.zeta == pytest.approx(0.3)
    assert verdict.estimate.params.delta == pytest.approx(0.2)


@pytest.mark.parametrize(
    "eps,eta,delta",
    [
        (0.5, 0.4, 0.1), (0.4, 0.4, 0.1), (0.0, 0.5, 0.1), (0.1, 1.1, 0.1), (0.1, 0.5, 0.6),
        (0.1, 0.5, 0.0), (0.1, 0.5, 0.5),
    ],
)
def test_parameter_validation(figure1, eps, eta, delta):
    known = uniform_extension_sampler(figure1)
    with pytest.raises(InvalidParameter) as excinfo:
        identity_test(known, known, eps, eta, delta)
    if not 0.0 < delta < 0.5:
        # a bad delta is reported as the caller passed it, not doubled
        assert f"got {delta}" in str(excinfo.value)


def test_decision_is_pure_threshold_of_estimate(figure1):
    known = uniform_extension_sampler(figure1)
    verdict = identity_test(known, known, 0.01, 0.61, 0.1, seed=4)
    assert decide(verdict.estimate, verdict.params) == verdict.decision
    assert verdict.decision == (
        REJECT if verdict.estimate.dtv_estimate > verdict.params.threshold else ACCEPT
    )


def test_tie_at_threshold_accepts(figure1):
    known = uniform_extension_sampler(figure1)
    verdict = identity_test(known, known, 0.01, 0.61, 0.1, seed=4)
    params = TesterParams(
        epsilon=0.01,
        eta=0.61,
        delta=0.1,
        zeta=0.3,
        delta_t=0.2,
        threshold=verdict.estimate.dtv_estimate,
    )
    assert decide(verdict.estimate, params) == ACCEPT


def test_identical_samplers_accept(figure1):
    known = uniform_extension_sampler(figure1)
    accepts = sum(
        identity_test(known, known, 0.01, 0.61, 0.1, seed=t).decision == ACCEPT
        for t in range(8)
    )
    assert accepts >= 7


def test_far_sampler_rejects(antichain3):
    known = uniform_extension_sampler(antichain3)
    far = biased_extension_sampler(antichain3, [1, 100, 10000])
    tv = exact_tv(
        exact_distribution(antichain3, "biased", (1, 100, 10000)),
        exact_distribution(antichain3, "uniform"),
    )
    assert tv >= Fraction(7, 10)
    rejects = sum(
        identity_test(far, known, 0.01, 0.61, 0.1, seed=t).decision == REJECT
        for t in range(8)
    )
    assert rejects >= 7


def test_linf_close_sampler_accepts(figure1):
    # masses within (1 +/- 0.2) of uniform pointwise imply TV <= 0.2, so the
    # accept guarantee applies at epsilon = 0.2
    weights = (1, 2, 1, Fraction(2, 3))
    dist = exact_distribution(figure1, "biased", weights)
    uniform = exact_distribution(figure1, "uniform")
    eps = Fraction(1, 5)
    for x, q in uniform.support.items():
        assert (1 - eps) * q <= dist.mass(x) <= (1 + eps) * q
    assert exact_tv(dist, uniform) <= eps

    unknown = biased_extension_sampler(figure1, weights)
    known = uniform_extension_sampler(figure1)
    accepts = sum(
        identity_test(unknown, known, 0.2, 0.8, 0.25, seed=t).decision == ACCEPT
        for t in range(10)
    )
    assert accepts >= 8
