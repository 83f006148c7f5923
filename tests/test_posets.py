import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subtv import (
    FULL_CUBE,
    LinearExtension,
    Poset,
    apply_condition,
    biased_extension_sampler,
    bits_to_extension,
    bits_to_str,
    count_extensions,
    encode_cnf,
    encode_matrix,
    enumerate_extensions,
    exact_distribution,
    exact_marginal,
    extension_to_bits,
    fix_free_pair,
    make_condition,
    orient_pair,
    parse_poset,
    prefix_condition,
    rng_stream,
    uniform_extension_sampler,
)
from subtv.errors import (
    ContradictionError,
    CycleError,
    InvalidEncoding,
    ParseError,
    TooLarge,
)
from subtv.instances import generate_instance, instance_to_json
from subtv.oracle import conditioned
from subtv.posets import _WALK_CHUNK

from conftest import small_posets


@st.composite
def label_ordered_posets(draw, max_k=5):
    # edges oriented small-to-large label cannot form a cycle
    k = draw(st.integers(2, max_k))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, k), st.integers(1, k)).filter(lambda p: p[0] != p[1]),
            max_size=8,
        )
    )
    return Poset.from_relations(k, [(min(a, b), max(a, b)) for a, b in pairs])


# parsing


def test_parse_figure1_closure(figure1):
    p = parse_poset('{"elements":4,"relations":[[1,2],[1,3],[2,4]]}')
    assert p == figure1
    assert p.leq[0, 3]  # closure added 1 before 4


def test_parse_antichain():
    p = parse_poset('{"elements":3,"relations":[]}')
    assert p.free_map.n == 3


def test_parse_cycle():
    with pytest.raises(CycleError):
        parse_poset('{"elements":2,"relations":[[1,2],[2,1]]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"elements":3}',
        '{"elements":"three","relations":[]}',
        '{"elements":3,"relations":[[1,2,3]]}',
        '{"elements":3,"relations":[[0,2]]}',
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_poset(text)


# matrix encoding


def test_encode_matrix_figure1(figure1):
    matrix, unrolled, fm = encode_matrix(figure1)
    assert unrolled == "111*1*"
    assert fm.label_pairs() == ((2, 3), (3, 4))
    assert matrix[1][2] == "*" and matrix[2][1] == "*"
    assert matrix[1][0] == "0" and matrix[0][1] == "1"


def test_encode_matrix_chain(chain3):
    _, unrolled, fm = encode_matrix(chain3)
    assert unrolled == "111"
    assert fm.n == 0


def test_encode_matrix_antichain(antichain3):
    _, unrolled, fm = encode_matrix(antichain3)
    assert unrolled == "***"
    assert fm.n == 3


# conditioning


def test_fix_free_pair_orientations(figure1):
    # free pair 0 is (2, 3) in labels; bit 0 orients 3 before 2
    p0 = fix_free_pair(figure1, 0, 0)
    assert p0.leq[2, 1]
    p1 = fix_free_pair(figure1, 0, 1)
    assert p1.leq[1, 2]
    # closure decides the other pair too: 3 before 2 before 4
    assert p0.leq[2, 3]
    assert p0.free_map.n == 0


def test_chained_condition_contradiction(figure1):
    # fixing (2,3) to 0 and then (3,4) to 0 forces the cycle 4<3<2<4
    cond = make_condition([(0, 0), (1, 0)], 2)
    with pytest.raises(ContradictionError):
        apply_condition(figure1, cond)


def test_orient_pair_is_noop_when_already_decided(figure1):
    p0 = fix_free_pair(figure1, 0, 0)
    again = orient_pair(p0, 1, 2, 0)
    assert again == p0
    with pytest.raises(ContradictionError):
        orient_pair(p0, 1, 2, 1)


def test_condition_indices_refer_to_original_free_map(figure1):
    # after fixing pair (2,3), pair (3,4) is decided; re-fixing it the same
    # way is a no-op while the flipped bit contradicts
    cond_ok = make_condition([(0, 0), (1, 1)], 2)
    pc = apply_condition(figure1, cond_ok)
    assert count_extensions(pc) == 1


# enumeration and counting


def test_enumerate_figure1(figure1):
    exts = enumerate_extensions(figure1)
    assert [e.labels() for e in exts] == [(1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4)]


def test_enumerate_chain_and_antichain(chain3, antichain3):
    assert len(enumerate_extensions(chain3)) == 1
    assert len(enumerate_extensions(antichain3)) == 6


def test_count_examples(figure1):
    assert count_extensions(figure1) == 3
    assert count_extensions(Poset.from_relations(6, [])) == 720
    chain20 = Poset.from_relations(20, [(i, i + 1) for i in range(1, 20)])
    assert count_extensions(chain20) == 1


def test_caps():
    with pytest.raises(TooLarge):
        enumerate_extensions(Poset.from_relations(11, []))
    with pytest.raises(TooLarge):
        count_extensions(Poset.from_relations(21, []))


def test_count_matches_enumeration_on_small_posets():
    for p in small_posets():
        assert count_extensions(p) == len(enumerate_extensions(p))


@settings(max_examples=40, deadline=None)
@given(label_ordered_posets())
def test_count_matches_enumeration_random(p):
    assert count_extensions(p) == len(enumerate_extensions(p))


# encoding round trips


def test_extension_bits_examples(figure1):
    fm = figure1.free_map
    assert extension_to_bits(LinearExtension((0, 1, 2, 3)), fm) == (1, 1)
    assert extension_to_bits(LinearExtension((0, 2, 1, 3)), fm) == (0, 1)
    assert extension_to_bits(LinearExtension((0, 1, 3, 2)), fm) == (1, 0)
    assert bits_to_extension((1, 1), figure1).labels() == (1, 2, 3, 4)
    with pytest.raises(InvalidEncoding):
        bits_to_extension((0, 0), figure1)


def test_round_trip_on_small_posets():
    for p in small_posets():
        fm = p.free_map
        for e in enumerate_extensions(p):
            assert bits_to_extension(extension_to_bits(e, fm), p) == e


@settings(max_examples=40, deadline=None)
@given(label_ordered_posets())
def test_round_trip_random(p):
    fm = p.free_map
    for e in enumerate_extensions(p):
        assert bits_to_extension(extension_to_bits(e, fm), p) == e


# samplers


def test_uniform_sampler_frequencies(figure1):
    sampler = uniform_extension_sampler(figure1)
    rng = rng_stream(21)
    draws = sampler.draw_many(FULL_CUBE, 30_000, rng)
    counts = Counter(bits_to_str(tuple(row)) for row in draws)
    for key in ("11", "10", "01"):
        assert abs(counts[key] / 30_000 - 1 / 3) <= 0.02


def test_uniform_sampler_sequential_path_matches(figure1):
    # single draws through the walk (enum_cap=0 turns the tables off)
    sampler = uniform_extension_sampler(figure1, enum_cap=0)
    rng = rng_stream(22)
    counts = Counter(bits_to_str(sampler.draw(FULL_CUBE, rng)) for _ in range(9000))
    for key in ("11", "10", "01"):
        assert abs(counts[key] / 9000 - 1 / 3) <= 0.03


def test_chain_sampler_single_point(chain3):
    sampler = uniform_extension_sampler(chain3)
    assert sampler.n == 0
    assert sampler.draw(FULL_CUBE, rng_stream(1)) == ()
    assert sampler.mass(()) == 1.0


def test_uniform_sampler_mass(figure1):
    sampler = uniform_extension_sampler(figure1)
    assert sampler.mass((1, 1)) == pytest.approx(1 / 3)
    assert sampler.mass((0, 0)) == 0.0


def test_biased_two_element_antichain():
    p = Poset.from_relations(2, [])
    sampler = biased_extension_sampler(p, [1, 3])
    dist = exact_distribution(p, "biased", (1, 3))
    # bit 1 encodes "first element earlier"
    assert dist.mass((1,)) == Fraction(1, 4)
    draws = sampler.draw_many(FULL_CUBE, 20_000, rng_stream(3))
    assert abs(draws[:, 0].mean() - 0.25) < 0.02


def test_biased_equal_weights_distribution(figure1):
    dist = exact_distribution(figure1, "biased", (1, 1, 1, 1))
    assert dist.mass((1, 1)) == Fraction(1, 4)
    assert dist.mass((1, 0)) == Fraction(1, 4)
    assert dist.mass((0, 1)) == Fraction(1, 2)


def test_skewed_weights_concentrate(figure1):
    # heavy weight on element 3 favors the extension placing 3 right after 1
    dist = exact_distribution(figure1, "biased", (1, 1, 50, 1))
    top = max(dist.support, key=dist.support.get)
    assert top == (0, 1)
    assert dist.support[top] >= Fraction(50, 51)


def test_conditioned_draws_respect_contradictory_condition_fallback():
    p = Poset.from_relations(4, [])
    # pairs row-major: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4); fixing
    # 1<2, 2<3, 3<1 is cyclic, so the subcube has zero mass
    cond = make_condition([(0, 1), (3, 1), (1, 0)], 6)
    sampler = uniform_extension_sampler(p)
    draws = sampler.draw_many(cond, 10_000, rng_stream(8))
    for i, b in cond.fixed:
        assert (draws[:, i] == b).all()
    for free in (2, 4, 5):
        assert 0.45 < draws[:, free].mean() < 0.55


def test_conditioned_tables_match_oracle(figure1):
    # every prefix-conditioned support table, for both samplers, against the
    # exact distribution of the conditioned poset; the 3-antichain with
    # weights (1, 2, 4) is a poset where greedy conditioning differs from
    # conditioning the unconditioned distribution
    weights = (1, 2, 4, 3, 5, 7)
    for p in [q for q in small_posets() if q.k <= 6] + [figure1]:
        w = weights[: p.k]
        conds = {
            prefix_condition(x, i)
            for x in exact_distribution(p, "uniform").support
            for i in range(p.free_map.n + 1)
        }
        for kind, sampler in (
            ("uniform", uniform_extension_sampler(p)),
            ("biased", biased_extension_sampler(p, w)),
        ):
            for cond in conds:
                bits, cum = sampler._support(cond).table
                probs = np.diff(cum, prepend=0.0)
                rows = [tuple(int(b) for b in row) for row in bits]
                exact = exact_distribution(
                    apply_condition(p, cond), kind, w, free_map=p.free_map
                ).support
                assert len(rows) == len(set(rows)) and set(rows) == set(exact)
                for row, prob in zip(rows, probs):
                    assert abs(prob - float(exact[row])) <= 1e-12
    # 1<2, 2<3, 3<1 on the 4-antichain is cyclic: no table
    cond = make_condition([(0, 1), (3, 1), (1, 0)], 6)
    p = Poset.from_relations(4, [])
    assert uniform_extension_sampler(p)._support(cond) is None
    assert biased_extension_sampler(p, (1, 2, 4, 3))._support(cond) is None


def test_biased_single_draw_walk_matches_oracle(figure1):
    weights = (3, 1, 5, 2)
    sampler = biased_extension_sampler(figure1, weights)
    sampler.enum_cap = 0  # single draws through the walk
    dist = exact_distribution(figure1, "biased", weights)
    rng = rng_stream(31)
    draws = 20_000
    counts = Counter(sampler.draw(FULL_CUBE, rng) for _ in range(draws))
    assert set(counts) <= set(dist.support)
    for x, mass in dist.support.items():
        p = float(mass)
        assert abs(counts[x] / draws - p) <= 3 * (p * (1 - p) / draws) ** 0.5


def _chi2_bound(df):
    # Wilson-Hilferty upper quantile of chi-square(df) at z = 4 (p ~ 3e-5)
    return df * (1 - 2 / (9 * df) + 4 * (2 / (9 * df)) ** 0.5) ** 3


def _assert_matches(draws, exact):
    """draws (rows of free bits) lie in the exact support and pass a chi-square bound."""
    counts = Counter(tuple(row) for row in draws.tolist())
    assert set(counts) <= set(exact)
    m = len(draws)
    chi2 = sum((counts[x] - m * float(p)) ** 2 / (m * float(p)) for x, p in exact.items())
    if len(exact) > 1:
        assert chi2 <= _chi2_bound(len(exact) - 1), (chi2, len(exact))


def _avgdeg_3_011_0():
    # k = 11 > ENUM_CAP, 60 extensions; the oracle enumerates it with cap=11
    return parse_poset(instance_to_json(generate_instance("avgdeg", "3", 11, 0)))


def test_walk_matches_oracle_on_prefix_conditions(figure1):
    # every prefix-conditioned walk, for both samplers, against the exact
    # distribution of the conditioned poset (as in the table test above)
    weights = (1, 2, 4, 3, 5, 7, 1, 2, 4, 3, 5)
    rng = rng_stream(41)
    for p in [q for q in small_posets() if q.k <= 6] + [figure1, _avgdeg_3_011_0()]:
        w = weights[: p.k]
        conds = sorted(
            {
                prefix_condition(x, i)
                for x in exact_distribution(p, "uniform", cap=p.k).support
                for i in range(p.free_map.n + 1)
            },
            key=lambda c: c.fixed,
        )
        biased = biased_extension_sampler(p, w)
        biased.enum_cap = 0
        for kind, sampler in (("uniform", uniform_extension_sampler(p, enum_cap=0)), ("biased", biased)):
            for cond in conds:
                exact = exact_distribution(
                    apply_condition(p, cond), kind, w, cap=p.k, free_map=p.free_map
                ).support
                _assert_matches(sampler.draw_many(cond, 2000, rng), exact)


def test_walk_matches_oracle_above_enum_cap():
    # the default samplers walk at k = 11; m spans several walk chunks and
    # ends inside one
    p = _avgdeg_3_011_0()
    weights = (1, 2, 4, 3, 5, 7, 1, 2, 4, 3, 5)
    m = 10 * _WALK_CHUNK + 7
    for kind, sampler in (
        ("uniform", uniform_extension_sampler(p)),
        ("biased", biased_extension_sampler(p, weights)),
    ):
        exact = exact_distribution(p, kind, weights, cap=11).support
        draws = sampler.draw_many(FULL_CUBE, m, rng_stream(42))
        _assert_matches(draws, exact)
        # draw_coordinate is the projection of draw_many on the same stream
        column = sampler.draw_coordinate(FULL_CUBE, 3, m, rng_stream(42))
        assert np.array_equal(column, draws[:, 3])


class _TopUniform:
    """A generator whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [1 - 2**-53, 1.0])
def test_walk_top_uniform_picks_last_minimal_element(u):
    # u = 1 - 2**-53 is numpy's largest uniform; u = 1.0 leaves no cumulative
    # weight above u * total, which the rounding guard handles.  Either way
    # each step takes the last minimal element.  In labels: 4 (the least
    # element), 2 of {1, 2}, 1, then 3; element 4 is never taken again.
    p = Poset.from_relations(4, [(4, 1), (4, 2), (1, 3)])
    sampler = biased_extension_sampler(p, (3, 1, 5, 2))
    sampler.enum_cap = 0
    ((_, pos),) = sampler._walk(sampler._support(FULL_CUBE), 5, _TopUniform(u))
    assert (pos.T == [2, 1, 3, 0]).all()  # the step of each element
    draws = sampler.draw_many(FULL_CUBE, 5, _TopUniform(u))
    expected = extension_to_bits(LinearExtension((3, 1, 0, 2)), p.free_map)
    assert [tuple(row) for row in draws.tolist()] == [expected] * 5


def test_support_cache_is_bounded():
    # 300 distinct conditions on the 5-antichain; the first, the full cube,
    # is evicted, rebuilt on its next draw, and still matches the oracle
    p = Poset.from_relations(5, [])
    dist = exact_distribution(p, "uniform")
    conds = sorted(
        {prefix_condition(x, i) for x in dist.support for i in range(p.free_map.n + 1)},
        key=lambda c: (len(c), c.fixed),
    )[:300]
    assert len(conds) == 300 and conds[0] == FULL_CUBE
    weights = (1, 2, 4, 3, 5)
    walking = biased_extension_sampler(p, weights)
    walking.enum_cap = 0
    rng = rng_stream(43)
    for kind, sampler in (("uniform", uniform_extension_sampler(p)), ("biased", walking)):
        for cond in conds:
            sampler.draw_many(cond, 1, rng)
        info = sampler._support.cache_info()
        assert info.misses == 300 and info.currsize <= 128
        exact = exact_distribution(p, kind, weights).support
        _assert_matches(sampler.draw_many(FULL_CUBE, 3000, rng), exact)
        assert sampler._support.cache_info().misses == 301


def test_uniform_conditional_marginals_match_oracle(figure1):
    sampler = uniform_extension_sampler(figure1)
    dist = exact_distribution(figure1, "uniform")
    for x in dist.support:
        for i in range(len(x)):
            cond = prefix_condition(x, i)
            assert sampler.conditional_marginal(cond, i) == exact_marginal(dist, cond, i)


def test_uniform_self_reducibility_exact():
    # conditioning the poset then sampling equals conditioning the distribution
    for p in small_posets():
        if p.free_map.n == 0 or p.k > 6:
            continue
        dist = exact_distribution(p, "uniform")
        for x in dist.support:
            for i in range(1, len(x) + 1):
                cond = prefix_condition(x, i)
                pc = apply_condition(p, cond)
                cond_dist = exact_distribution(pc, "uniform", free_map=p.free_map)
                assert cond_dist.support == conditioned(dist, cond).support


def test_biased_self_reducibility_on_figure1(figure1):
    # greedy conditioning is exact on this poset for arbitrary weights
    weights = (3, 1, 5, 2)
    dist = exact_distribution(figure1, "biased", weights)
    for x in dist.support:
        for i in range(1, len(x) + 1):
            cond = prefix_condition(x, i)
            pc = apply_condition(figure1, cond)
            cond_dist = exact_distribution(pc, "biased", weights, free_map=figure1.free_map)
            assert cond_dist.support == conditioned(dist, cond).support


def test_biased_self_reducibility_fails_on_antichain(antichain3):
    # known limitation: conditioning the greedy walk is not the same as
    # conditioning its distribution on every poset
    weights = (1, 2, 4)
    dist = exact_distribution(antichain3, "biased", weights)
    cond = make_condition([(0, 1)], 3)
    pc = apply_condition(antichain3, cond)
    cond_dist = exact_distribution(pc, "biased", weights, free_map=antichain3.free_map)
    assert cond_dist.support != conditioned(dist, cond).support


# CNF export


def _cnf_stats(text):
    lines = text.strip().splitlines()
    header = lines[0].split()
    clauses = [tuple(int(v) for v in ln.split()[:-1]) for ln in lines[1:]]
    return int(header[2]), int(header[3]), clauses


def test_cnf_antichain3(antichain3):
    nvars, nclauses, clauses = _cnf_stats(encode_cnf(antichain3))
    assert nvars == 3
    assert nclauses == 6
    assert all(len(c) == 3 for c in clauses)


def test_cnf_figure1(figure1):
    nvars, nclauses, clauses = _cnf_stats(encode_cnf(figure1))
    assert nvars == 6
    units = [c for c in clauses if len(c) == 1]
    ternary = [c for c in clauses if len(c) == 3]
    assert len(units) == 4
    assert len(ternary) == 24
    assert nclauses == 28


def test_cnf_chain2():
    nvars, nclauses, clauses = _cnf_stats(encode_cnf(Poset.from_relations(2, [(1, 2)])))
    assert nvars == 1
    assert nclauses == 1
    assert clauses == [(1,)]


def _cnf_models(text, nvars):
    _, _, clauses = _cnf_stats(text)
    models = []
    for assignment in itertools.product((False, True), repeat=nvars):
        def sat(lit):
            return assignment[abs(lit) - 1] == (lit > 0)

        if all(any(sat(l) for l in cl) for cl in clauses):
            models.append(tuple(1 if v else 0 for v in assignment))
    return models


def test_cnf_models_biject_with_extensions():
    for p in small_posets():
        if p.k > 6:
            continue
        nvars = p.k * (p.k - 1) // 2
        models = _cnf_models(encode_cnf(p), nvars)
        # project each model onto the free positions to compare encodings
        all_pairs = [(i, j) for i in range(p.k) for j in range(i + 1, p.k)]
        free_idx = [all_pairs.index(pair) for pair in p.free_map.pairs]
        model_encodings = {tuple(m[i] for i in free_idx) for m in models}
        extension_encodings = {
            extension_to_bits(e, p.free_map) for e in enumerate_extensions(p)
        }
        assert len(models) == len(extension_encodings)
        assert model_encodings == extension_encodings


def test_cnf_model_count_figure1(figure1):
    models = _cnf_models(encode_cnf(figure1), 6)
    assert len(models) == 3
