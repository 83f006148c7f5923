import pytest
from hypothesis import given
from hypothesis import strategies as st

from subtv import (
    Condition,
    FULL_CUBE,
    ProductSampler,
    bits_from_str,
    evaluate_mass,
    make_condition,
    prefix_condition,
    rng_stream,
    uniform_extension_sampler,
)
from subtv.core import uniform_fallback_many
from subtv.errors import DimensionMismatch, DuplicateCoordinate, IndexOutOfRange


def test_make_condition_empty_is_full_cube():
    cond = make_condition([], 3)
    assert cond == FULL_CUBE
    assert len(cond) == 0


def test_make_condition_conflict_raises():
    with pytest.raises(DuplicateCoordinate):
        make_condition([(0, 1), (0, 0)], 3)


def test_make_condition_repeat_same_bit_collapses():
    cond = make_condition([(0, 1), (0, 1)], 3)
    assert cond.fixed == ((0, 1),)


def test_make_condition_singleton_subcube():
    cond = make_condition([(0, 1), (1, 0), (2, 1)], 3)
    assert cond.agrees((1, 0, 1))
    assert not cond.agrees((1, 1, 1))


def test_make_condition_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        make_condition([(3, 0)], 3)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), max_size=10))
def test_make_condition_keeps_last_consistent_assignment(pairs):
    seen = {}
    conflict = False
    for i, b in pairs:
        if i in seen and seen[i] != b:
            conflict = True
        seen[i] = b
    if conflict:
        with pytest.raises(DuplicateCoordinate):
            make_condition(pairs, 8)
    else:
        cond = make_condition(pairs, 8)
        assert dict(cond.fixed) == seen


def test_prefix_condition_cases():
    x = bits_from_str("110")
    assert prefix_condition(x, 0) == FULL_CUBE
    assert prefix_condition(x, 2).fixed == ((0, 1), (1, 1))
    assert prefix_condition(x, 3).fixed == ((0, 1), (1, 1), (2, 0))
    with pytest.raises(IndexOutOfRange):
        prefix_condition(x, 4)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10), st.data())
def test_prefix_condition_agrees_with_source(bits, data):
    x = tuple(bits)
    i = data.draw(st.integers(0, len(x)))
    cond = prefix_condition(x, i)
    assert cond.agrees(x)
    assert len(cond) == i


def test_evaluate_mass_uniform_cube():
    q = ProductSampler([0.5, 0.5])
    assert evaluate_mass(q, (0, 1)) == 0.25


def test_evaluate_mass_extension_distribution(figure1):
    known = uniform_extension_sampler(figure1)
    assert evaluate_mass(known, (1, 1)) == pytest.approx(1 / 3)
    assert evaluate_mass(known, (0, 0)) == 0.0


def test_evaluate_mass_dimension_mismatch():
    q = ProductSampler([0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        evaluate_mass(q, (0, 1, 1))


def test_known_distributions_sum_to_one(figure1, antichain3):
    from subtv import Poset

    for known in (
        ProductSampler([0.3, 0.9, 0.5]),
        ProductSampler([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.35, 0.65, 0.5]),
        uniform_extension_sampler(figure1),
        uniform_extension_sampler(antichain3),
        uniform_extension_sampler(Poset.from_relations(4, [])),  # n = 6
    ):
        total = 0.0
        for v in range(2**known.n):
            x = tuple((v >> i) & 1 for i in range(known.n))
            total += known.mass(x)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_rng_stream_determinism():
    a = rng_stream(123, 4).random(64)
    b = rng_stream(123, 4).random(64)
    assert a.tobytes() == b.tobytes()
    c = rng_stream(123, 5).random(64)
    assert a.tobytes() != c.tobytes()


def test_draws_agree_with_condition(figure1):
    # 10,000 draws per sampler must match every fixed coordinate exactly
    rng = rng_stream(11)
    samplers_and_conds = [
        (ProductSampler([0.2, 0.8, 0.5]), make_condition([(1, 0)], 3)),
        (uniform_extension_sampler(figure1), make_condition([(0, 1)], 2)),
        (uniform_extension_sampler(figure1), make_condition([(0, 0), (1, 0)], 2)),
    ]
    for sampler, cond in samplers_and_conds:
        draws = sampler.draw_many(cond, 10_000, rng)
        for i, b in cond.fixed:
            assert (draws[:, i] == b).all()
        for _ in range(100):
            assert cond.agrees(sampler.draw(cond, rng))


def test_uniform_fallback_respects_condition():
    rng = rng_stream(5)
    cond = make_condition([(0, 1), (2, 0)], 4)
    draws = uniform_fallback_many(cond, 4, 200, rng)
    assert draws.shape == (200, 4)
    assert all(cond.agrees(x) for x in draws)


def test_product_sampler_zero_mass_falls_back_to_uniform():
    # coordinate 0 is deterministically 1, so fixing it to 0 empties the subcube
    sampler = ProductSampler([1.0, 0.5])
    cond = make_condition([(0, 0)], 2)
    rng = rng_stream(9)
    draws = sampler.draw_many(cond, 4000, rng)
    assert (draws[:, 0] == 0).all()
    assert 0.4 < draws[:, 1].mean() < 0.6
