import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtv import (
    ConditionalSampler,
    EstimatorParams,
    Poset,
    ProductSampler,
    biased_extension_sampler,
    derive_params,
    estimate_mass,
    estimate_tv,
    exact_distribution,
    exact_tv,
    identity_test,
    parse_poset,
    rng_stream,
    uniform_extension_sampler,
)
from subtv.errors import BudgetExhausted, DimensionMismatch, InvalidParameter
from subtv.instances import generate_instance, instance_to_json
from subtv import posets


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


def test_estimate_tv_deterministic(figure1):
    unknown = biased_extension_sampler(figure1, [1, 1, 1, 1])
    known = uniform_extension_sampler(figure1)
    a = estimate_tv(unknown, known, 0.3, 0.2, seed=9)
    b = estimate_tv(unknown, known, 0.3, 0.2, seed=9)
    assert a == b
    d = estimate_tv(unknown, known, 0.3, 0.2, seed=10)
    assert d != a


def test_estimate_tv_on_the_walk_path(monkeypatch):
    # k = 11, 60 extensions; a listing bound of 0 sends every draw to the
    # batched walk, and the oracle, which lists through it, runs first
    poset = parse_poset(instance_to_json(generate_instance("avgdeg", "3", 11, 0)))
    exact = exact_tv(
        exact_distribution(poset, "biased", [1] * poset.k, cap=poset.k),
        exact_distribution(poset, "uniform", cap=poset.k),
    )
    monkeypatch.setattr(posets, "LISTING_BYTES", 0)
    unknown = biased_extension_sampler(poset, [1] * poset.k)
    known = uniform_extension_sampler(poset)
    one = estimate_tv(unknown, known, zeta=0.95, delta=0.5, seed=3)
    assert abs(one.dtv_estimate - float(exact)) <= 0.95


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
        estimate_tv(unknown, unknown, 0.3, 0.2, seed=0, max_total_samples=20000)
    assert err.value.draws <= 20000
    assert 0 < len(err.value.partial_terms) < 67


class _Counting(ConditionalSampler):
    """Forwards to a sampler and counts the draws requested of it."""

    def __init__(self, sampler):
        self.sampler, self.n, self.made = sampler, sampler.n, 0

    def draw_many(self, condition, m, rng):
        self.made += m
        return self.sampler.draw_many(condition, m, rng)

    def draw_coordinate(self, condition, coord, m, rng):
        self.made += m
        return self.sampler.draw_coordinate(condition, coord, m, rng)


_FIGURE1 = Poset.from_relations(4, [(1, 2), (1, 3), (2, 4)])
_BUDGET_CASES = {
    "product": (ProductSampler([0.3, 0.8]), ProductSampler([0.5, 0.5])),
    "figure1": (
        biased_extension_sampler(_FIGURE1, [1, 1, 1, 1]),
        uniform_extension_sampler(_FIGURE1),
    ),
}


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(sorted(_BUDGET_CASES)), seed=st.integers(0, 1000), data=st.data())
def test_budget_bounds_the_draws_made_and_keeps_a_prefix(case, seed, data):
    # count the unbudgeted run's draws made; a budget below that count stops
    # the run within it, with a prefix of the full run's terms, and a budget
    # at or above it returns the full run's report
    unknown, known = _BUDGET_CASES[case]
    counting = _Counting(unknown)
    full = estimate_tv(counting, known, 0.9, 0.5, seed=seed)
    made = counting.made
    assert full.total_samples <= made
    for budget in (made - 1, data.draw(st.integers(0, made - 1), label="below")):
        counting = _Counting(unknown)
        with pytest.raises(BudgetExhausted) as err:
            estimate_tv(counting, known, 0.9, 0.5, seed=seed, max_total_samples=budget)
        assert err.value.draws == counting.made <= budget
        terms = err.value.partial_terms
        assert terms == full.per_sample_terms[: len(terms)] and len(terms) < full.params.alpha
    for budget in (made, data.draw(st.integers(made, 2 * made), label="above")):
        assert estimate_tv(unknown, known, 0.9, 0.5, seed=seed, max_total_samples=budget) == full


class _ZeroMassAtItsDraw(ConditionalSampler):
    """Draws (1, 1), but under x0 = 1 always gives x1 = 0: the second
    marginal at its own draw is 0, so its first point never finishes."""

    n = 2

    def __init__(self):
        self.made = 0

    def draw_many(self, condition, m, rng):
        self.made += m
        if self.made > 100_000:
            raise AssertionError(f"{self.made} draws against a budget of 1000")
        out = np.ones((m, 2), dtype=np.uint8)
        out[:, 1] = not condition.fixed
        return out


def test_budget_stops_a_point_that_never_finishes():
    sampler = _ZeroMassAtItsDraw()
    with pytest.raises(BudgetExhausted) as err:
        estimate_tv(sampler, ProductSampler([0.5, 0.5]), 0.9, 0.5, max_total_samples=1000)
    assert err.value.draws == sampler.made <= 1000
    assert err.value.partial_terms == ()


def test_zero_budget_makes_no_draw():
    known = ProductSampler([0.5, 0.5])
    sampler = _Counting(known)
    with pytest.raises(BudgetExhausted) as err:
        estimate_tv(sampler, known, 0.3, 0.2, max_total_samples=0)
    assert err.value.draws == sampler.made == 0


@pytest.mark.parametrize("budget", [-5, -1, 2.5, 0.5, math.inf, math.nan])
def test_bad_budget_is_invalid(budget):
    sampler = ProductSampler([0.5, 0.5])
    with pytest.raises(InvalidParameter, match="max_total_samples"):
        estimate_tv(sampler, sampler, 0.3, 0.2, max_total_samples=budget)


_RAMP = (1, 2, 3, 4, 5, 6, 7) * 2
_SMALL = ("estimate", {"zeta": 0.9, "delta": 0.2}, 5)
# the benchmark's calls: biased-equal against uniform, each workload's own
# tolerances and budget, and the first estimator seed of its --seed 1 run
_ENUM_HEAVY = ("estimate", {"zeta": 0.9, "delta": 0.5, "max_total_samples": 7_000_000}, 1000)
_DRAW_HEAVY = (
    "test",
    {"epsilon": 0.26, "eta": 0.56, "delta": 0.1, "max_total_samples": 170_000_000},
    1000,
)
_WALK_K14 = ("estimate", {"zeta": 0.95, "delta": 0.5, "max_total_samples": 200_000}, 1000)

_GOLDEN = [
    # (param, size, index), weights, (mode, tolerances, seed), then the pins:
    # estimate, samples, the terms' SHA-256 and the verdict of a test; and
    # whether the listing bound is 0
    # k = 10: table draws, on a table of thousands of rows
    (("1", 10, 0), _RAMP, _SMALL, 0.5182980403089379, 4740475,
     "0ae39b89ecff165b430f3d5bdf9c4fb588890377c56368883c3f7a9ee2193620", None, False),
    # k = 14, 36 extensions: table draws
    (("4", 14, 0), _RAMP, _SMALL, 0.1147016634388092, 173066,
     "fc85f17f5b9b2ecdd82b91b4562133969b41a7b3612a6c0c4a28d594a0880a3f", None, False),
    # the same at a listing bound of 0: the batched walk, whose draws take k
    # uniforms where a table's take one, so the same law gives other terms
    (("4", 14, 0), _RAMP, _SMALL, 0.15752948320853633, 172964,
     "d086e0ca58cb30b9aaa690b93a38596321184471b6bf2fca611ddc314f91199a", None, True),
    # the benchmark's workloads: enum-heavy, draw-heavy, walk-k14
    (("1", 10, 4), (1,) * 10, _ENUM_HEAVY, 0.3203517469583778, 2159965,
     "19d02ca33d1916b9521dcedc4206f936d97a3bc6033c94e734255f455538540b", None, False),
    # every free coordinate of avgdeg_2_010_0's tables flips at most 4 times
    (("2", 10, 0), (1,) * 10, _DRAW_HEAVY, 0.2379721334539192, 55881618,
     "fd9a298dca52c4319bc6326cb70146ae18e0e4cf5baa54b881d20cb54f58a890", "ACCEPT", False),
    (("4", 14, 0), (1,) * 14, _WALK_K14, 0.07525605322860036, 67122,
     "e85d2a5bd3b83f0f6b2a71b7e8d0b2ddf3d74aecc4cb372b1918827e310b6c3c", None, False),
]


@pytest.mark.parametrize(
    "instance,weights,call,dtv,samples,terms_sha256,decision,walk",
    _GOLDEN,
    ids=["-".join(map(str, (*c[0][:2], *c[3:6]))) for c in _GOLDEN],  # the pins name a case
)
def test_golden_reports(
    instance, weights, call, dtv, samples, terms_sha256, decision, walk, monkeypatch
):
    # a report is a pure function of (instance, samplers, tolerances, seed):
    # a faster draw must return every draw's bit unchanged
    if walk:
        monkeypatch.setattr(posets, "LISTING_BYTES", 0)
    p = parse_poset(instance_to_json(generate_instance("avgdeg", *instance)))
    sampler = biased_extension_sampler(p, weights[: p.k])
    mode, params, seed = call
    known = uniform_extension_sampler(p)
    if mode == "test":
        verdict = identity_test(sampler, known, **params, seed=seed)
        report = verdict.estimate
        assert verdict.decision == decision
    else:
        report = estimate_tv(sampler, known, **params, seed=seed)
    assert report.dtv_estimate == dtv and report.total_samples == samples
    terms = json.dumps(report.per_sample_terms).encode()
    assert hashlib.sha256(terms).hexdigest() == terms_sha256


def test_import_loads_no_concurrency_module():
    # the outer loop runs on the calling thread; concurrent.futures alone
    # would add about a quarter of a fresh interpreter's set-up time
    code = """
import sys
import subtv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "concurrent")
assert not loaded, loaded
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
