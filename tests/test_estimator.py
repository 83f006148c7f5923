import math

import pytest

from subtv import (
    EstimatorParams,
    ProductSampler,
    biased_extension_sampler,
    derive_params,
    estimate_mass,
    estimate_tv,
    exact_distribution,
    exact_tv,
    parse_poset,
    rng_stream,
    uniform_extension_sampler,
)
from subtv.errors import BudgetExhausted, DimensionMismatch, InvalidParameter
from subtv.instances import generate_instance, instance_to_json


def test_derive_params_worked_example():
    p = derive_params(6, 0.3, 0.2)
    assert p.alpha == 67
    assert p.gamma == pytest.approx(0.117509, abs=1e-6)
    assert p.delta_prime == pytest.approx(0.2 / 134)
    assert p.k == 11722


def test_derive_params_invariants_hold_exactly():
    for n, zeta, delta in ((2, 0.3, 0.2), (5, 0.15, 0.1), (9, 0.45, 0.33)):
        p = derive_params(n, zeta, delta)
        assert p.alpha == math.ceil((2 / zeta**2) * math.log(4 / delta))
        assert p.gamma == zeta / (1.11 * (2 + zeta))
        assert p.delta_prime == delta / (2 * p.alpha)
        assert p.k == math.ceil((3 * n / p.gamma**2) * math.log(2 * n / p.delta_prime))


@pytest.mark.parametrize(
    "n,zeta,delta",
    [(1, 1.0, 0.2), (1, 0.0, 0.2), (1, 0.3, 0.0), (1, 0.3, 1.0), (0, 0.3, 0.2), (1, -0.1, 0.2)],
)
def test_derive_params_domain_checks(n, zeta, delta):
    with pytest.raises(InvalidParameter):
        derive_params(n, zeta, delta)


def test_alpha_monotone_in_delta():
    alphas = [derive_params(3, 0.3, d).alpha for d in (0.4, 0.2, 0.1, 0.05)]
    assert alphas == sorted(alphas)


def _point_params(n, gamma, delta_prime):
    # ad-hoc params for exercising the mass estimator at a chosen (gamma, delta')
    k = math.ceil((3 * n / gamma**2) * math.log(2 * n / delta_prime))
    return EstimatorParams(
        n=n, zeta=0.3, delta=0.2, alpha=1, gamma=gamma, delta_prime=delta_prime, k=k
    )


def test_estimate_mass_single_fair_bit():
    sampler = ProductSampler([0.5])
    params = _point_params(1, 0.2, 0.1)
    hits = 0
    for trial in range(100):
        est = estimate_mass(sampler, (1,), params, rng_stream(500 + trial))
        if 0.5 * 0.75 <= est.p_hat_x <= 0.5 * 1.25:
            hits += 1
    assert hits >= 90


def test_estimate_mass_product_identity(figure1):
    sampler = uniform_extension_sampler(figure1)
    params = _point_params(2, 0.2, 0.05)
    est = estimate_mass(sampler, (1, 1), params, rng_stream(7))
    assert est.p_hat_x == est.marginals[0].p_hat * est.marginals[1].p_hat
    assert est.p_hat_x > 0
    assert est.draws == sum(m.draws for m in est.marginals)
    assert all(m.draws >= params.k for m in est.marginals)


def test_estimate_mass_dimension_mismatch(figure1):
    sampler = uniform_extension_sampler(figure1)
    params = _point_params(3, 0.2, 0.05)
    with pytest.raises(DimensionMismatch):
        estimate_mass(sampler, (1, 1), params, rng_stream(0))


def test_estimate_tv_report_shape(figure1):
    unknown = biased_extension_sampler(figure1, [1, 1, 1, 1])
    known = uniform_extension_sampler(figure1)
    report = estimate_tv(unknown, known, 0.3, 0.2, seed=5)
    assert len(report.per_sample_terms) == report.params.alpha
    assert all(0.0 <= t <= 1.0 for t in report.per_sample_terms)
    assert 0.0 <= report.dtv_estimate < 1.0
    assert report.dtv_estimate == sum(report.per_sample_terms) / len(report.per_sample_terms)
    assert report.total_samples >= report.params.alpha * report.params.n * report.params.k
    assert report.seed == 5


def test_estimate_tv_deterministic_across_threads(figure1):
    unknown = biased_extension_sampler(figure1, [1, 1, 1, 1])
    known = uniform_extension_sampler(figure1)
    a = estimate_tv(unknown, known, 0.3, 0.2, seed=9)
    b = estimate_tv(unknown, known, 0.3, 0.2, seed=9)
    c = estimate_tv(unknown, known, 0.3, 0.2, seed=9, threads=4)
    assert a == b == c
    d = estimate_tv(unknown, known, 0.3, 0.2, seed=10)
    assert d != a


def test_estimate_tv_on_the_walk_path():
    # k = 11 > ENUM_CAP, so every draw is the batched walk
    poset = parse_poset(instance_to_json(generate_instance("avgdeg", "3", 11, 0)))
    unknown = biased_extension_sampler(poset, [1] * poset.k)
    known = uniform_extension_sampler(poset)
    exact = exact_tv(
        exact_distribution(poset, "biased", [1] * poset.k, cap=poset.k),
        exact_distribution(poset, "uniform", cap=poset.k),
    )
    one = estimate_tv(unknown, known, zeta=0.95, delta=0.5, seed=3)
    two = estimate_tv(unknown, known, zeta=0.95, delta=0.5, seed=3, threads=2)
    assert abs(one.dtv_estimate - float(exact)) <= 0.95
    assert one == two


def test_estimate_tv_dimension_mismatch(figure1, antichain3):
    with pytest.raises(DimensionMismatch):
        estimate_tv(
            uniform_extension_sampler(figure1), uniform_extension_sampler(antichain3), 0.3, 0.2
        )


def test_estimate_tv_empirical_failure_rate(figure1):
    # |estimate - TV| > zeta should happen in at most a delta + 0.1 share of runs
    zeta, delta = 0.3, 0.2
    unknown = biased_extension_sampler(figure1, [1, 1, 1, 1])
    known = uniform_extension_sampler(figure1)
    tv = float(
        exact_tv(
            exact_distribution(figure1, "biased", (1, 1, 1, 1)),
            exact_distribution(figure1, "uniform"),
        )
    )
    failures = sum(
        abs(estimate_tv(unknown, known, zeta, delta, seed=t).dtv_estimate - tv) > zeta
        for t in range(50)
    )
    assert failures <= (delta + 0.1) * 50


def test_estimate_mass_term_when_known_mass_is_zero(figure1):
    # a drawn string outside the known support contributes a full unit term
    unknown = biased_extension_sampler(figure1, [1, 1, 1, 1])

    class ZeroKnown:
        n = 2

        def mass(self, x):
            return 0.0

    report = estimate_tv(unknown, ZeroKnown(), 0.45, 0.3, seed=0)
    assert all(t == 1.0 for t in report.per_sample_terms)


def test_marginal_error_aggregation_probe(figure1):
    # relative error of each marginal stays below gamma / sqrt(n) except on a
    # vanishing share of runs
    params = derive_params(2, 0.3, 0.2)
    sampler = uniform_extension_sampler(figure1)
    dist = exact_distribution(figure1, "uniform")
    from subtv import exact_marginal, prefix_condition

    x = (1, 1)
    truth = []
    for i in range(2):
        m1 = exact_marginal(dist, prefix_condition(x, i), i)
        truth.append(float(m1 if x[i] == 1 else 1 - m1))
    bound = params.gamma / math.sqrt(2)
    exceed = 0
    trials = 100
    for t in range(trials):
        est = estimate_mass(sampler, x, params, rng_stream(9000 + t))
        for i in range(2):
            if abs(est.marginals[i].p_hat / truth[i] - 1.0) > bound:
                exceed += 1
    allowed = (params.delta_prime / 2 + 0.05) * trials * 2
    assert exceed <= allowed


def test_estimate_mass_log_product_path_for_wide_cubes():
    # a wide cube (n = 40): p_hat is the plain product of the marginals
    n = 40
    sampler = ProductSampler([0.5] * n)
    params = EstimatorParams(
        n=n, zeta=0.3, delta=0.2, alpha=1, gamma=0.5, delta_prime=0.1, k=24
    )
    est = estimate_mass(sampler, (1,) * n, params, rng_stream(77))
    assert est.p_hat_x > 0.0
    direct = 1.0
    for m in est.marginals:
        direct *= m.p_hat
    assert est.p_hat_x == pytest.approx(direct, rel=1e-12)


def test_estimate_tv_budget_exhaustion(figure1):
    unknown = uniform_extension_sampler(figure1)
    with pytest.raises(BudgetExhausted) as err:
        estimate_tv(unknown, unknown, 0.3, 0.2, seed=0, max_total_samples=5000)
    assert err.value.draws >= 5000
    assert 0 < len(err.value.partial_terms) < 67
