import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtv import (
    FULL_CUBE,
    ExactDistribution,
    Poset,
    apply_condition,
    biased_extension_sampler,
    exact_distribution,
    exact_marginal,
    exact_tv,
    make_condition,
    prefix_condition,
    rng_stream,
    uniform_extension_sampler,
)
from subtv.errors import DimensionMismatch, IndexOutOfRange, ZeroMassPrefix
from subtv.instances import generate_instance, instance_to_json
from subtv.posets import extension_rows, extension_to_bits, parse_poset

from conftest import WEIGHTINGS, ranked_posets, small_posets


def test_uniform_distribution_figure1(figure1):
    dist = exact_distribution(figure1, "uniform")
    assert dist.support == {
        (1, 1): Fraction(1, 3),
        (1, 0): Fraction(1, 3),
        (0, 1): Fraction(1, 3),
    }


def test_biased_equal_distribution_figure1(figure1):
    dist = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    assert dist.support == {
        (1, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 4),
        (0, 1): Fraction(1, 2),
    }


def test_chain_distribution_is_point_mass(chain3):
    for kind, weights in (("uniform", None), ("biased", (2, 1, 1))):
        dist = exact_distribution(chain3, kind, weights)
        assert dist.support == {(): Fraction(1)}


def test_exact_tv_examples(figure1):
    u = exact_distribution(figure1, "uniform")
    b = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    assert exact_tv(u, u) == 0
    assert exact_tv(b, u) == Fraction(1, 6)
    disjoint_a = ExactDistribution({(0, 0): Fraction(1)}, 2)
    disjoint_b = ExactDistribution({(1, 1): Fraction(1)}, 2)
    assert exact_tv(disjoint_a, disjoint_b) == 1


def test_exact_tv_dimension_mismatch(figure1, antichain3):
    u2 = exact_distribution(figure1, "uniform")
    u3 = exact_distribution(antichain3, "uniform")
    with pytest.raises(DimensionMismatch):
        exact_tv(u2, u3)


@st.composite
def rational_distributions(draw, n=2):
    points = sorted(
        draw(
            st.sets(
                st.tuples(*([st.integers(0, 1)] * n)), min_size=1, max_size=2**n
            )
        )
    )
    raw = [draw(st.integers(1, 9)) for _ in points]
    total = sum(raw)
    return ExactDistribution({x: Fraction(w, total) for x, w in zip(points, raw)}, n)


@settings(max_examples=60, deadline=None)
@given(rational_distributions(), rational_distributions())
def test_exact_tv_is_a_symmetric_bounded_metric_ish(p, q):
    tv = exact_tv(p, q)
    assert tv == exact_tv(q, p)
    assert 0 <= tv <= 1
    assert (tv == 0) == (p.support == q.support)


def test_exact_marginal_examples(figure1):
    u = exact_distribution(figure1, "uniform")
    b = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    assert exact_marginal(u, FULL_CUBE, 0) == Fraction(2, 3)
    assert exact_marginal(b, FULL_CUBE, 0) == Fraction(1, 2)
    # fixing the first bit to 0 forces the second bit in figure1
    assert exact_marginal(u, make_condition([(0, 0)], 2), 1) == 1


def test_exact_marginal_zero_mass_prefix(figure1):
    u = exact_distribution(figure1, "uniform")
    with pytest.raises(ZeroMassPrefix):
        exact_marginal(u, make_condition([(0, 0), (1, 0)], 2), 1)


def test_chain_rule_closure(figure1, antichain3):
    for p, kind, weights in (
        (figure1, "uniform", None),
        (figure1, "biased", (2, 5, 1, 3)),
        (antichain3, "biased", (1, 2, 4)),
    ):
        dist = exact_distribution(p, kind, weights)
        for x, mass in dist.support.items():
            prod = Fraction(1)
            for i in range(len(x)):
                m1 = exact_marginal(dist, prefix_condition(x, i), i)
                prod *= m1 if x[i] == 1 else 1 - m1
            assert prod == mass


def test_sampler_agreement_with_oracle(figure1):
    # empirical frequencies over 100k draws within 3 sigma per support point
    cases = [
        (uniform_extension_sampler(figure1), exact_distribution(figure1, "uniform")),
        (
            biased_extension_sampler(figure1, [1, 1, 1, 1]),
            exact_distribution(figure1, "biased", (1, 1, 1, 1)),
        ),
    ]
    m = 100_000
    for sampler, dist in cases:
        draws = sampler.draw_many(FULL_CUBE, m, rng_stream(77))
        counts = Counter(tuple(int(v) for v in row) for row in draws)
        for x, mass in dist.support.items():
            p = float(mass)
            sigma = math.sqrt(p * (1 - p) / m)
            assert abs(counts[x] / m - p) <= 3 * sigma


# The biased law by brute force, independent of extension_rows: every order
# that respects p, each with its product of greedy step ratios.

def _avgdeg(param, size, index):
    return parse_poset(instance_to_json(generate_instance("avgdeg", param, size, index)))


def linear_orders(p):
    """The permutations of p's elements that place each one after its
    predecessors: itertools.permutations filtered, pruned at the first
    element placed too early so that k = 14 stays cheap."""
    below = p.below_masks.tolist()

    def extend(prefix, placed):
        if len(prefix) == p.k:
            yield prefix
            return
        for e in range(p.k):
            if not placed >> e & 1 and not below[e] & ~placed:
                yield from extend(prefix + (e,), placed | 1 << e)

    return extend((), 0)


def greedy_step_product(below, order, weights):
    """The walk's probability of placing the elements in order: per step
    with a choice, the placed element's weight over the minimal elements'."""
    mask = (1 << len(below)) - 1
    prob = Fraction(1)
    for e in order:
        minimals = [m for m in range(len(below)) if mask >> m & 1 and not below[m] & mask]
        assert e in minimals
        if len(minimals) > 1:
            prob *= weights[e] / sum(weights[m] for m in minimals)
        mask ^= 1 << e
    return prob


def greedy_law(p, weights, free_map=None):
    fm = free_map if free_map is not None else p.free_map
    below, ws = p.below_masks.tolist(), [Fraction(w) for w in weights]
    return {extension_to_bits(o, fm): greedy_step_product(below, o, ws) for o in linear_orders(p)}


@st.composite
def conditioned_orders(draw):
    """(p, pc): a poset and p conditioned on some free bits of one of its extensions."""
    p = draw(st.one_of(st.sampled_from(small_posets()), ranked_posets()))
    x = extension_to_bits(draw(st.sampled_from(list(linear_orders(p)))), p.free_map)
    keep = draw(st.lists(st.booleans(), min_size=len(x), max_size=len(x)))
    cond = make_condition([(i, b) for i, (b, kept) in enumerate(zip(x, keep)) if kept], len(x))
    return p, apply_condition(p, cond)


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: f"k{p.k}")
def test_linear_orders_are_the_filtered_permutations(p):
    def respects(order):
        rank = {e: t for t, e in enumerate(order)}
        return all(rank[i] < rank[j] for i, j in zip(*np.nonzero(p.leq)) if i != j)

    assert list(linear_orders(p)) == list(filter(respects, itertools.permutations(range(p.k))))


@settings(max_examples=80, deadline=None)
@given(conditioned_orders(), st.sampled_from(sorted(WEIGHTINGS)))
def test_biased_law_is_the_per_permutation_product(orders, weighting):
    p, pc = orders
    w = WEIGHTINGS[weighting](p.k)
    want = greedy_law(pc, w, free_map=p.free_map)
    assert exact_distribution(pc, "biased", w, free_map=p.free_map).support == want


def _ids(instance):
    return "_".join(map(str, instance))


@pytest.mark.parametrize("instance", [("4", 14, 0), ("1", 10, 4)], ids=_ids)
def test_biased_law_is_the_per_permutation_product_at_k_10_to_14(instance):
    p = _avgdeg(*instance)
    for weighting, make in WEIGHTINGS.items():
        w = make(p.k)
        assert exact_distribution(p, "biased", w, cap=p.k).support == greedy_law(p, w), weighting


@pytest.mark.parametrize("instance", [("1", 10, 4), ("4", 14, 0), ("3", 11, 0)], ids=_ids)
def test_biased_law_is_the_tables_float_law(instance):
    # the sampler tables' float probabilities, row by row in extension_rows'
    # order, against the exact law: no sampling between the two
    p = _avgdeg(*instance)
    for weighting in ("equal", "float"):
        w = WEIGHTINGS[weighting](p.k)
        _, bits, prob, _ = extension_rows(p, p.free_map.pairs, w)
        exact = exact_distribution(p, "biased", w, cap=p.k).support
        want = np.array([float(exact[x]) for x in map(tuple, bits.T.tolist())])
        assert np.max(np.abs(prob - want) / want) <= 1e-12, weighting


# The benchmark's three instances, biased-equal against uniform at cap=k: the
# values perfbench/workloads.py pins, so that a changed oracle value fails here.
BENCHMARK_TVS = {
    ("1", 10, 4): Fraction(104588099, 265130496),
    ("2", 10, 0): Fraction(1, 4),
    ("4", 14, 0): Fraction(1, 6),
}


@pytest.mark.parametrize("instance", BENCHMARK_TVS, ids=_ids)
def test_exact_tv_of_the_benchmark_instances(instance):
    p = _avgdeg(*instance)
    biased = exact_distribution(p, "biased", [1] * p.k, cap=p.k)
    assert exact_tv(biased, exact_distribution(p, "uniform", cap=p.k)) == BENCHMARK_TVS[instance]


# exact_tv sums once per distinct pair of mass objects; its reference is the
# sum of positive deviations point by point.

def pointwise_tv(p_dist, q_dist):
    """The sum of positive deviations p(x) - q(x) over p's support, one point at a time."""
    q = q_dist.support
    deviations = (m - q.get(x, 0) for x, m in p_dist.support.items())
    return sum((d for d in deviations if d > 0), Fraction(0))


def _assert_tv_is_pointwise(p_dist, q_dist):
    assert exact_tv(p_dist, q_dist) == pointwise_tv(p_dist, q_dist)
    assert exact_tv(q_dist, p_dist) == pointwise_tv(q_dist, p_dist)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(small_posets()), st.sampled_from(sorted(WEIGHTINGS)))
def test_exact_tv_is_the_pointwise_sum(p, weighting):
    biased = exact_distribution(p, "biased", WEIGHTINGS[weighting](p.k))
    _assert_tv_is_pointwise(biased, exact_distribution(p, "uniform"))


@settings(max_examples=40, deadline=None)
@given(conditioned_orders(), st.sampled_from(sorted(WEIGHTINGS)))
def test_exact_tv_is_the_pointwise_sum_on_a_conditioned_support(orders, weighting):
    # the conditioned law lives on part of p's support: points of one side
    # are missing from the other
    p, pc = orders
    w = WEIGHTINGS[weighting](p.k)
    conditioned = exact_distribution(pc, "biased", w, free_map=p.free_map)
    _assert_tv_is_pointwise(conditioned, exact_distribution(p, "uniform"))


@pytest.mark.parametrize("instance", [("1", 10, 4), ("4", 14, 0)], ids=_ids)
def test_exact_tv_is_the_pointwise_sum_at_k_10_to_14(instance):
    p = _avgdeg(*instance)
    uniform = exact_distribution(p, "uniform", cap=p.k)
    laws = [exact_distribution(p, "biased", make(p.k), cap=p.k) for make in WEIGHTINGS.values()]
    for law in laws:
        _assert_tv_is_pointwise(law, uniform)
    _assert_tv_is_pointwise(laws[0], laws[1])


def test_exact_tv_is_the_pointwise_sum_on_hand_built_distributions():
    third = Fraction(1, 3)
    other_third = Fraction(1, 3)  # equal to third, another object
    assert other_third == third and other_third is not third
    # (0, 0): one object in both, deviation 0; (0, 1): equal masses in
    # distinct objects; (1, 0) only in p; (1, 1) only in q
    p = ExactDistribution({(0, 0): third, (0, 1): third, (1, 0): third}, 2)
    q = ExactDistribution({(0, 0): third, (0, 1): other_third, (1, 1): third}, 2)
    assert exact_tv(p, q) == exact_tv(q, p) == Fraction(1, 3)
    _assert_tv_is_pointwise(p, q)
    # distinct objects of one value in p, against one object in q and against none
    r = ExactDistribution({(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 2)}, 2)
    s = ExactDistribution({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}, 2)
    assert exact_tv(r, s) == exact_tv(s, r) == Fraction(3, 4)
    _assert_tv_is_pointwise(r, s)


def test_exact_tv_subtracts_once_per_distinct_mass_pair(monkeypatch):
    # the benchmark's enum-heavy pair: 4,262 points, 40 distinct biased masses
    # against one uniform mass.  Fraction is a pure-Python class, so its
    # subtractions can be counted.
    p = _avgdeg("1", 10, 4)
    biased = exact_distribution(p, "biased", [1] * p.k)
    uniform = exact_distribution(p, "uniform")
    pairs = {(m, uniform.support[x]) for x, m in biased.support.items()}
    assert (len(biased.support), len(pairs)) == (4262, 40)
    subtractions, subtract = [], Fraction.__sub__
    monkeypatch.setattr(Fraction, "__sub__", lambda a, b: subtractions.append(a) or subtract(a, b))
    tv = exact_tv(biased, uniform)
    monkeypatch.undo()
    assert tv == BENCHMARK_TVS[("1", 10, 4)]
    assert 0 < len(subtractions) <= len(pairs)


# exact_marginal against a reference that reads each point's prefix directly,
# not through a Condition

def pointwise_marginal(dist, x, i):
    """Pr[bit i == 1 | the first i bits are x's], summed point by point."""
    kept = [(y, m) for y, m in dist.support.items() if y[:i] == x[:i]]
    return sum((m for y, m in kept if y[i] == 1), Fraction(0)) / sum((m for _, m in kept), Fraction(0))


def _assert_marginals_are_pointwise(dist, points):
    for x in points:
        for i in range(len(x)):
            assert exact_marginal(dist, prefix_condition(x, i), i) == pointwise_marginal(dist, x, i)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(small_posets()), st.sampled_from(sorted(WEIGHTINGS)), st.data())
def test_exact_marginal_is_the_pointwise_ratio(p, weighting, data):
    dist = exact_distribution(p, "biased", WEIGHTINGS[weighting](p.k))
    x = data.draw(st.sampled_from(sorted(dist.support)))
    _assert_marginals_are_pointwise(dist, [x])


@pytest.mark.parametrize("instance", [("1", 10, 4), ("4", 14, 0)], ids=_ids)
def test_exact_marginal_is_the_pointwise_ratio_on_drawn_points(instance):
    p = _avgdeg(*instance)
    w = WEIGHTINGS["float"](p.k)
    dist = exact_distribution(p, "biased", w, cap=p.k)
    draws = biased_extension_sampler(p, w).draw_many(FULL_CUBE, 2, rng_stream(5))
    _assert_marginals_are_pointwise(dist, [tuple(map(int, row)) for row in draws])


# The contract of ExactDistribution, whatever its points are keyed by: mass
# reads any 0/1 sequence, support lists the points in extension_rows' order
# with one Fraction object per distinct mass, and hand-built distributions
# behave as listed ones.

def test_mass_reads_a_point_in_any_sequence_type(figure1):
    dist = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    for x, m in dist.support.items():
        # bytes() of an int64 array is 8 bytes a bit: a key built that way would miss
        for point in (x, list(x), np.array(x, dtype=np.uint8), np.array(x, dtype=np.int64)):
            assert dist.mass(point) == m


def test_mass_is_zero_off_the_support(figure1, chain3):
    dist = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    zero = Fraction(0)
    for point in ((1,), (1, 1, 0), (2, 1), (1, -1), np.array([1, 257]), (0, 0), np.zeros(2, dtype=np.uint8)):
        assert dist.mass(point) == zero
    assert exact_distribution(chain3, "uniform").mass(()) == 1


def _listed_support(p, kind, weights):
    """The support point by point: extension_rows' columns as tuples, in
    row order, each with the per-permutation law's mass (biased) or one over
    the row count (uniform)."""
    _, bits, _, _ = extension_rows(p, p.free_map.pairs)
    keys = [tuple(int(v) for v in bits[:, r]) for r in range(bits.shape[1])]
    law = greedy_law(p, weights) if kind == "biased" else dict.fromkeys(keys, Fraction(1, len(keys)))
    return [(x, law[x]) for x in keys]


def _assert_support_is_listed(p, kind, weights):
    support = exact_distribution(p, kind, weights, cap=p.k).support
    assert list(support.items()) == _listed_support(p, kind, weights)
    assert len({id(m) for m in support.values()}) == len(set(support.values()))


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: f"k{p.k}")
def test_support_is_the_listing_in_row_order(p):
    _assert_support_is_listed(p, "uniform", None)
    for make in WEIGHTINGS.values():
        _assert_support_is_listed(p, "biased", make(p.k))


@pytest.mark.parametrize("instance", BENCHMARK_TVS, ids=_ids)
def test_support_is_the_listing_in_row_order_on_the_benchmark_instances(instance):
    p = _avgdeg(*instance)
    _assert_support_is_listed(p, "uniform", None)
    _assert_support_is_listed(p, "biased", [1] * p.k)


@pytest.mark.parametrize("instance", [("1", 10, 4), ("4", 14, 0)], ids=_ids)
def test_hand_built_distributions_match_listed_ones(instance):
    p = _avgdeg(*instance)
    n, w = p.free_map.n, WEIGHTINGS["ramp"](p.k)
    listed = [exact_distribution(p, "biased", w, cap=p.k), exact_distribution(p, "uniform", cap=p.k)]
    # tuple keys from the permutations, fresh Fraction objects, not extension_rows' order
    hand = [
        ExactDistribution(greedy_law(p, w), n),
        ExactDistribution({x: Fraction(1, len(listed[1].support)) for x in reversed(listed[1].support)}, n),
    ]
    assert hand == listed
    tv = exact_tv(*listed)
    assert exact_tv(*hand) == exact_tv(hand[0], listed[1]) == exact_tv(listed[0], hand[1]) == tv
    assert exact_tv(hand[1], hand[0]) == exact_tv(*listed[::-1])
    x = next(iter(listed[0].support))
    for i in range(n):
        for a, b in zip(hand, listed):
            assert exact_marginal(a, prefix_condition(x, i), i) == exact_marginal(b, prefix_condition(x, i), i)


def test_exact_marginal_rejects_a_coordinate_outside_the_dimension(figure1):
    dist = exact_distribution(figure1, "uniform")
    for coord in (-1, dist.n):
        with pytest.raises(IndexOutOfRange):
            exact_marginal(dist, FULL_CUBE, coord)


def test_the_oracle_functions_never_build_the_tuple_keyed_support(monkeypatch):
    # support is a view for readers of the distribution; the oracle itself
    # reads only the points keyed by their bytes
    def refuse(dist):
        raise AssertionError("the tuple-keyed support was built")

    monkeypatch.setattr(ExactDistribution, "support", property(refuse))
    p = _avgdeg("1", 10, 4)
    biased = exact_distribution(p, "biased", [1] * p.k)
    uniform = exact_distribution(p, "uniform")
    tv = exact_tv(biased, uniform)
    marginal = exact_marginal(biased, FULL_CUBE, 0)
    monkeypatch.undo()
    assert tv == BENCHMARK_TVS[("1", 10, 4)]
    assert marginal == pointwise_marginal(biased, next(iter(biased.support)), 0)
