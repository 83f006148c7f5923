import math

import numpy as np
import pytest

from subtv import FULL_CUBE, ProductSampler, gbas_estimate, make_condition, rng_stream
from subtv.errors import IndexOutOfRange, InvalidParameter


class _ScriptedHits:
    """Stub sampler: draw i (counted across calls) succeeds at every 10th
    draw for the first 2000 draws and at every 100th after that."""

    n = 1

    def __init__(self):
        self.seen = 0

    def draw_coordinate(self, condition, coord, m, rng):
        i = np.arange(self.seen, self.seen + m) + 1
        self.seen += m
        return np.where(i <= 2000, i % 10 == 0, i % 100 == 0).astype(np.uint8)


class _Recording:
    """Wraps a sampler and keeps every coordinate value it returns, in order."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.n = sampler.n
        self.values = []

    def draw_coordinate(self, condition, coord, m, rng):
        out = self.sampler.draw_coordinate(condition, coord, m, rng)
        self.values.append(np.asarray(out))
        return out

    @property
    def requested(self):
        return sum(len(v) for v in self.values)


def test_parameter_validation():
    sampler = ProductSampler([0.5])
    rng = rng_stream(0)
    with pytest.raises(InvalidParameter):
        gbas_estimate(sampler, FULL_CUBE, 0, 1, 1, rng)
    with pytest.raises(InvalidParameter):
        gbas_estimate(sampler, make_condition([(0, 1)], 1), 0, 1, 10, rng)
    with pytest.raises(InvalidParameter):
        gbas_estimate(sampler, FULL_CUBE, 0, 2, 10, rng)


@pytest.mark.parametrize(
    "sampler", [ProductSampler([0.3, 0.7]), _ScriptedHits()], ids=["product", "scripted"]
)
def test_coordinate_outside_dimension_is_out_of_range(sampler):
    # -1 would otherwise draw the last coordinate, and n fail inside numpy
    for coord in (-1, sampler.n):
        with pytest.raises(IndexOutOfRange, match="coordinate"):
            gbas_estimate(sampler, FULL_CUBE, coord, 1, 10, rng_stream(0))


@pytest.mark.parametrize("k", [2.5, 10.0, "10"])
def test_non_integer_k_is_invalid(k):
    with pytest.raises(InvalidParameter, match="k must be an integer"):
        gbas_estimate(ProductSampler([0.5]), FULL_CUBE, 0, 1, k, rng_stream(0))


@pytest.mark.parametrize("k", [2, 100, 20000])
@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.97, 1.0])
def test_requests_stay_close_to_the_draws_used(p, k):
    sampler = _Recording(ProductSampler([p]))
    res = gbas_estimate(sampler, FULL_CUBE, 0, 1, k, rng_stream(6000 + k))
    stream = np.concatenate(sampler.values)
    assert res.draws == int(np.flatnonzero(stream == 1)[k - 1]) + 1
    assert sampler.requested <= 2 * res.draws
    if k == 20000:
        assert sampler.requested <= 1.05 * res.draws + 1024
    if p == 1.0:
        assert sampler.requested == k


def test_deterministic_coordinate_draw_count_and_concentration():
    # p = 1 means every draw succeeds: exactly k draws, r ~ Gamma(k, 1)
    sampler = ProductSampler([1.0])
    k = 300
    hits = 0
    for trial in range(200):
        res = gbas_estimate(sampler, FULL_CUBE, 0, 1, k, rng_stream(1000 + trial))
        assert res.draws == k
        assert res.p_hat == (k - 1) / res.r
        if abs(res.p_hat - 1.0) <= 0.2:
            hits += 1
    assert hits >= 190


def test_fair_coordinate_relative_error_and_mean_draws():
    # k from the guarantee at eps = 0.1, delta = 0.05
    k = math.ceil(3 * math.log(40) / 0.01)
    assert k == 1107
    sampler = ProductSampler([0.5])
    failures = 0
    draw_counts = []
    for trial in range(200):
        res = gbas_estimate(sampler, FULL_CUBE, 0, 1, k, rng_stream(2000 + trial))
        draw_counts.append(res.draws)
        if abs(res.p_hat / 0.5 - 1.0) > 0.1:
            failures += 1
    assert failures <= 10
    mean_draws = float(np.mean(draw_counts))
    assert abs(mean_draws - k / 0.5) <= 0.1 * (k / 0.5)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_unbiasedness_probe(p):
    sampler = ProductSampler([p])
    k = 500
    estimates = np.array(
        [
            gbas_estimate(sampler, FULL_CUBE, 0, 1, k, rng_stream(3000 + t)).p_hat
            for t in range(1000)
        ]
    )
    assert (estimates > 0).all()
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - p) <= 3 * se


def test_result_invariants_on_skewed_coordinate():
    sampler = ProductSampler([0.05])
    res = gbas_estimate(sampler, FULL_CUBE, 0, 1, 50, rng_stream(4))
    assert res.draws >= 50
    assert res.p_hat == (50 - 1) / res.r
    assert res.p_hat > 0
    assert res.r > 0


def test_draws_stop_at_kth_success_across_batches():
    # 200 successes in the first 2000 draws, then the 300 more up to k = 500
    # land at draws 2100, 2200, ..., 32000; the rate drop forces several batches
    sampler = _ScriptedHits()
    res = gbas_estimate(sampler, FULL_CUBE, 0, 1, 500, rng_stream(5))
    assert res.draws == 32000
    assert sampler.seen > res.draws


def test_clock_is_gamma_of_the_draw_count():
    # given draws, r ~ Gamma(draws, 1): r - draws has mean 0 and variance draws
    sampler = ProductSampler([0.5])
    runs = [
        gbas_estimate(sampler, FULL_CUBE, 0, 1, 10, rng_stream(5000 + t)) for t in range(4000)
    ]
    gap = np.array([res.r - res.draws for res in runs])
    mean_draws = float(np.mean([res.draws for res in runs]))
    se = gap.std(ddof=1) / math.sqrt(len(gap))
    assert abs(gap.mean()) <= 4 * se
    assert abs(gap.var(ddof=1) - mean_draws) <= 0.1 * mean_draws


def test_draw_count_is_negative_binomial():
    # the position of the k-th success at rate p: mean k/p, variance k(1-p)/p^2,
    # whatever batch sizes the run chose from the outcomes it saw
    p, k = 0.3, 20
    sampler = ProductSampler([p])
    draws = np.array(
        [gbas_estimate(sampler, FULL_CUBE, 0, 1, k, rng_stream(7000 + t)).draws for t in range(4000)]
    )
    var = k * (1 - p) / p**2
    assert abs(draws.mean() - k / p) <= 4 * math.sqrt(var / len(draws))
    assert abs(draws.var(ddof=1) - var) <= 0.1 * var
