import contextlib
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subtv import (
    FULL_CUBE,
    ExactDistribution,
    Poset,
    apply_condition,
    biased_extension_sampler,
    bits_to_extension,
    bits_to_str,
    count_extensions,
    encode_cnf,
    encode_matrix,
    enumerate_extensions,
    estimate_tv,
    exact_distribution,
    extension_to_bits,
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
from subtv import posets
from subtv.posets import LISTING_BYTES, _WALK_CHUNK, _upset_counts, extension_rows

from conftest import WEIGHTINGS, ranked_posets, relation_lists, small_posets


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


@st.composite
def conditioned_small_posets(draw):
    p = draw(st.sampled_from(small_posets()))
    n = p.free_map.n
    bits = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n, max_size=n))
    return p, make_condition([(i, b) for i, b in enumerate(bits) if b is not None], n)


def reference_closure(k, relations):
    """The order 1-based relations generate, by boolean-matmul fixpoint, and
    whether it has a cycle: two distinct elements each below the other."""
    leq = np.eye(k, dtype=bool)
    for a, b in relations:
        leq[a - 1, b - 1] = True
    while True:
        new = leq | (leq @ leq)
        if np.array_equal(new, leq):
            break
        leq = new
    return leq, bool((leq & leq.T & ~np.eye(k, dtype=bool)).any())


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
        '{"elements": true, "relations": []}',
        '{"elements": 3, "relations": [[true, 3]]}',
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_poset(text)


@settings(max_examples=300, deadline=None)
@given(relation_lists())
def test_from_relations_matches_reference_closure(kr):
    k, relations = kr
    leq, cyclic = reference_closure(k, relations)
    if cyclic:
        with pytest.raises(CycleError) as err:
            Poset.from_relations(k, relations)
        named = re.match(r"\((\d+), (\d+)\) closes a cycle", str(err.value))
        assert (int(named[1]), int(named[2])) in relations
    else:
        p = Poset.from_relations(k, relations)
        assert np.array_equal(p.leq, leq)
        assert not p.leq.flags.writeable
        below = [sum(1 << a for a in range(k) if a != e and leq[a, e]) for e in range(k)]
        assert p.below_masks.tolist() == below


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
    p0 = orient_pair(figure1, *figure1.free_map.pairs[0], 0)
    assert p0.leq[2, 1]
    p1 = orient_pair(figure1, *figure1.free_map.pairs[0], 1)
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
    p0 = orient_pair(figure1, *figure1.free_map.pairs[0], 0)
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


@settings(max_examples=200, deadline=None)
@given(conditioned_small_posets())
def test_apply_condition_keeps_exactly_the_agreeing_extensions(pc):
    p, cond = pc
    fm = p.free_map
    encoded = [extension_to_bits(e, fm) for e in enumerate_extensions(p)]
    agreeing = [x for x in encoded if cond.agrees(x)]
    if not agreeing:
        with pytest.raises(ContradictionError, match="closes a cycle"):
            apply_condition(p, cond)
    else:
        pc = apply_condition(p, cond)
        assert [extension_to_bits(e, fm) for e in enumerate_extensions(pc)] == agreeing


# enumeration and counting


def test_enumerate_figure1(figure1):
    exts = enumerate_extensions(figure1)
    assert exts == [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]


def test_enumerate_chain_and_antichain(chain3, antichain3):
    assert len(enumerate_extensions(chain3)) == 1
    assert len(enumerate_extensions(antichain3)) == 6


def test_count_examples(figure1):
    assert count_extensions(figure1) == 3
    assert count_extensions(Poset.from_relations(6, [])) == 720
    chain20 = Poset.from_relations(20, [(i, i + 1) for i in range(1, 20)])
    assert count_extensions(chain20) == 1


def _with_examples(posets):
    """Run a Hypothesis test on each of these posets too, as explicit examples."""

    def apply(test):
        for p in posets:
            test = example(p)(test)
        return test

    return apply


@_with_examples(small_posets())  # figure1 among them
@settings(max_examples=100, deadline=None)
@given(ranked_posets())
def test_enumerate_matches_permutations(p):
    # the enumeration's reference: every permutation of range(k) that
    # respects leq, in itertools.permutations (lexicographic) order
    reference = [
        order
        for order in itertools.permutations(range(p.k))
        if all(not p.leq[b, a] for i, a in enumerate(order) for b in order[i + 1 :])
    ]
    assert enumerate_extensions(p) == reference


def test_extension_rows_bits_match_the_encoder(figure1):
    # the tables and the oracle share extension_rows' gather; here it meets
    # the independent per-extension encoder, on every prefix-conditioned
    # poset encoded on its root's free map
    for p in small_posets() + [figure1]:
        fm = p.free_map
        conds = {
            prefix_condition(extension_to_bits(e, fm), i)
            for e in enumerate_extensions(p)
            for i in range(fm.n + 1)
        }
        for cond in sorted(conds, key=lambda c: c.fixed):
            pos, bits, _, _ = extension_rows(apply_condition(p, cond), fm.pairs)
            orders = pos.argsort(axis=1).tolist()
            assert bits.shape == (fm.n, len(orders)) and bits.dtype == np.uint8
            assert [tuple(row) for row in bits.T.tolist()] == [
                extension_to_bits(o, fm) for o in orders
            ]


def test_upset_counts_closed_forms():
    # every subset of an antichain is an up-set, with |U|! linear orders
    masks, counts = _upset_counts(Poset.from_relations(12, []))
    assert masks.tolist() == list(range(4096))
    assert counts.tolist() == [math.factorial(m.bit_count()) for m in range(4096)]
    # a chain's up-sets are its 21 tops, each with one order
    masks, counts = _upset_counts(Poset.from_relations(20, [(i, i + 1) for i in range(1, 20)]))
    assert masks.tolist() == sorted(((1 << 20) - 1) ^ ((1 << t) - 1) for t in range(21))
    assert counts.tolist() == [1] * 21
    # a k = 20 generated instance, against the earlier memo and dense counts
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 20, 0)))
    assert count_extensions(p) == 45_886_782_960


@contextlib.contextmanager
def _listing_bound(monkeypatch, nbytes):
    """extension_rows lists within nbytes while the block runs: at 0 it
    lists nothing, so the samplers draw from the walk, and the oracle,
    which lists through the same bound, must run outside the block."""
    with monkeypatch.context() as patch:
        patch.setattr(posets, "LISTING_BYTES", nbytes)
        yield


def test_caps():
    # the listings' byte bound is checked in test_listings_stop_at_the_row_cap
    with pytest.raises(TooLarge):
        count_extensions(Poset.from_relations(21, []))


def _run_python(code: str, max_bytes: int | None = None) -> None:
    """Run code in a fresh interpreter that imports subtv from src, and
    assert it exits 0; max_bytes caps the child's address space, so that a
    listing with no row bound fails the test instead of taking the machine's
    memory (the 11-antichain has 39.9 M extensions)."""
    if max_bytes is not None:
        code = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, {max_bytes}))\n{code}"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr


def test_listings_stop_at_the_row_cap():
    # the 11-antichain is within the oracle's cap=11 and has no element cap
    # in enumerate_extensions, but its 11! extensions pass LISTING_BYTES:
    # the expansion stops at its first level past it, at a bounded peak
    _run_python(
        """
import tracemalloc
from subtv import Poset, enumerate_extensions, exact_distribution
from subtv.errors import TooLarge
p = Poset.from_relations(11, [])
for listing in (lambda: exact_distribution(p, "uniform", cap=11), lambda: enumerate_extensions(p)):
    tracemalloc.start()
    try:
        listing()
    except TooLarge:
        peak = tracemalloc.get_traced_memory()[1]
    else:
        raise AssertionError("listed 11! extensions")
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
""",
        max_bytes=1 << 30,
    )


def test_a_level_past_the_row_cap_is_counted_before_it_is_listed():
    # the 63-antichain's step 4 has 14.3 M partial extensions: the count
    # raises before that level's row and element lists exist
    _run_python(
        """
import tracemalloc
from subtv import Poset, enumerate_extensions
from subtv.errors import TooLarge
tracemalloc.start()
try:
    enumerate_extensions(Poset.from_relations(63, []))
except TooLarge:
    peak = tracemalloc.get_traced_memory()[1]
else:
    raise AssertionError("listed 63! extensions")
assert peak < 200 << 20, peak
""",
        max_bytes=1 << 30,
    )


def test_listings_stay_under_the_byte_bound():
    # 19 stacked pairs (k = 38, each pair before the next) have 2^19
    # extensions, which a bound of 2^19 rows listed at a 226 MB traced peak
    # (384 MB with weights); LISTING_BYTES stops their listing, for the
    # oracle, enumerate_extensions and the biased sampler, below the bound
    _run_python(
        """
import tracemalloc
from subtv import FULL_CUBE, Poset, biased_extension_sampler, enumerate_extensions
from subtv import exact_distribution, rng_stream
from subtv.errors import TooLarge
from subtv.posets import LISTING_BYTES
pairs = [(2 * i + a, 2 * i + 2 + b) for i in range(18) for a in (1, 2) for b in (1, 2)]
p = Poset.from_relations(38, pairs)
for listing in (lambda: exact_distribution(p, "uniform", cap=38), lambda: enumerate_extensions(p)):
    tracemalloc.start()
    try:
        listing()
    except TooLarge:
        peak = tracemalloc.get_traced_memory()[1]
    else:
        raise AssertionError("listed 2^19 extensions of 38 elements")
    finally:
        tracemalloc.stop()
    assert peak < LISTING_BYTES, peak
tracemalloc.start()
sampler = biased_extension_sampler(p, [1] * 38)
sampler.draw_many(FULL_CUBE, 10, rng_stream(1))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
assert sampler._support(FULL_CUBE).cum is None
assert peak < LISTING_BYTES, peak
""",
        max_bytes=1 << 30,
    )


def test_a_table_whenever_the_listing_fits():
    # one rule picks the path: avgdeg_4_014_0 (k = 14, 36 extensions) gets a
    # table, and so does the order of three 2-chains among ten elements:
    # 453,600 rows, as any listing of at most 10 elements and 2^19 rows fits
    k14 = parse_poset(instance_to_json(generate_instance("avgdeg", "4", 14, 0)))
    chains = Poset.from_relations(10, [(1, 2), (3, 4), (5, 6)])
    for p in (k14, chains):
        for sampler in (uniform_extension_sampler(p), biased_extension_sampler(p, [1] * p.k)):
            assert len(sampler._support(FULL_CUBE).cum) == count_extensions(p)
    assert count_extensions(chains) == 453_600 and chains.free_map.n == 42
    assert 2**19 * posets._row_bytes(10, 45) == LISTING_BYTES


def test_oversized_table_falls_back_to_the_walk():
    # the 10-antichain's 10! extensions pass LISTING_BYTES (as a table they
    # would take 183 MB), so both samplers draw from the walk; on an
    # antichain both laws are uniform, so every pair bit is a fair coin
    _run_python(
        """
import tracemalloc
import numpy as np
from subtv import FULL_CUBE, Poset, biased_extension_sampler, bits_to_extension, rng_stream
from subtv import uniform_extension_sampler
p = Poset.from_relations(10, [])
for make in (uniform_extension_sampler, lambda p: biased_extension_sampler(p, [1] * 10)):
    tracemalloc.start()
    try:
        sampler = make(p)
        draws = sampler.draw_many(FULL_CUBE, 2000, rng_stream(19))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, peak
    assert sampler._support(FULL_CUBE).cum is None
    for row in draws.tolist():
        bits_to_extension(tuple(row), p)
    z = np.abs(draws.mean(axis=0) - 0.5) / np.sqrt(0.25 / len(draws))
    assert (z < 4).all(), z.max()
""",
        max_bytes=1 << 30,
    )


def test_enumerate_extensions_has_no_element_cap():
    # k = 14, 36 extensions: only the byte bound limits a listing
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "4", 14, 0)))
    orders = enumerate_extensions(p)
    assert len(set(orders)) == count_extensions(p) == 36 and orders == sorted(orders)
    assert all(bits_to_extension(extension_to_bits(o, p.free_map), p) == o for o in orders)


def test_oversized_document_is_rejected_before_allocating():
    # the walk's int64 masks cap an instance at 63 elements; a larger one
    # fails before its k x k matrix (10 GB at k = 100000) is allocated
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="k <= 63"):
            parse_poset('{"elements": 100000, "relations": []}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert Poset.from_relations(63, []).k == 63
    with pytest.raises(TooLarge):
        Poset.from_relations(64, [])


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
    assert extension_to_bits((0, 1, 2, 3), fm) == (1, 1)
    assert extension_to_bits((0, 2, 1, 3), fm) == (0, 1)
    assert extension_to_bits((0, 1, 3, 2), fm) == (1, 0)
    assert bits_to_extension((1, 1), figure1) == (0, 1, 2, 3)
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


@settings(max_examples=100, deadline=None)
@given(ranked_posets())
def test_bits_to_extension_decodes_exactly_the_encodings(p):
    fm = p.free_map
    assume(fm.n <= 8)
    encodings = {extension_to_bits(e, fm): e for e in enumerate_extensions(p)}
    for bits in itertools.product((0, 1), repeat=fm.n):
        if bits in encodings:
            assert bits_to_extension(bits, p) == encodings[bits]
        else:
            with pytest.raises(InvalidEncoding):
                bits_to_extension(bits, p)


# samplers


def test_uniform_sampler_frequencies(figure1):
    sampler = uniform_extension_sampler(figure1)
    rng = rng_stream(21)
    draws = sampler.draw_many(FULL_CUBE, 30_000, rng)
    counts = Counter(bits_to_str(tuple(row)) for row in draws)
    for key in ("11", "10", "01"):
        assert abs(counts[key] / 30_000 - 1 / 3) <= 0.02


def test_uniform_sampler_sequential_path_matches(figure1, monkeypatch):
    # single draws through the walk (a listing bound of 0 turns the tables off)
    monkeypatch.setattr(posets, "LISTING_BYTES", 0)
    sampler = uniform_extension_sampler(figure1)
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


def test_uniform_sampler_mass_matches_the_oracle_off_the_cube(figure1):
    # a bit outside {0, 1} encodes no extension: bits_to_extension once read
    # any bit but 1 as 0, giving (2, 1) the mass of (0, 1)
    sampler = uniform_extension_sampler(figure1)
    exact = exact_distribution(figure1, "uniform")
    points = [(2, 1), (1, 2), (-1, 1), (1, -1), (0.5, 1), (1, 0.5), (1.0, 1), (0, 1), (1, 1), (0, 0)]
    for x in points:
        assert sampler.mass(x) == float(exact.mass(x)), x
    assert sampler.mass((2, 1)) == 0.0 and sampler.mass((0, 1)) == pytest.approx(1 / 3)
    for x in points[:6]:
        with pytest.raises(InvalidEncoding):
            bits_to_extension(x, figure1)


@pytest.mark.parametrize("k", [4, 11], ids=["table", "walk"])
def test_biased_weights_must_be_positive_finite_floats(k, monkeypatch):
    # accepted, nan and inf would draw one wrong extension on the walk and
    # fail inside the table's value guide; 1/10^400 is positive but its
    # float is 0, and 10^400 overflows its float; finite weights whose
    # total overflows would draw the same bits every time on both paths;
    # the oracle's exact law takes the same rule, before its enumeration
    # cap (the default cap, not cap=k, so that an oracle checking after
    # the cap raises TooLarge at k = 11 instead of listing 11! extensions)
    p = Poset.from_relations(k, [])
    bad = [math.nan, math.inf, -math.inf, -1, 0, Fraction(1, 10**400), 10**400]
    for weights in [[1] * (k - 1) + [w] for w in bad] + [[1e308] * k]:
        with pytest.raises(ValueError, match="finite"):
            biased_extension_sampler(p, weights)
        with pytest.raises(ValueError, match="finite"):
            exact_distribution(p, "biased", weights)
    if k == 11:
        monkeypatch.setattr(posets, "LISTING_BYTES", 0)  # the walk
    sampler = biased_extension_sampler(p, [1] * (k - 1) + [Fraction(1, 10**300)])
    assert (sampler._support(FULL_CUBE).cum is not None) == (k == 4)
    draws = sampler.draw_many(FULL_CUBE, 100, rng_stream(5))
    # the tiny-weight element comes last in all but about 1e-300 of draws
    last = [(i, k - 1) for i in range(k - 1)]
    cols = [sampler.free_map.pairs.index(pair) for pair in last]
    assert (draws[:, cols] == 1).all()


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
                support = sampler._support(cond)
                bits, cum = support.bits.T, support.cum
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


def test_biased_single_draw_walk_matches_oracle(figure1, monkeypatch):
    weights = (3, 1, 5, 2)
    dist = exact_distribution(figure1, "biased", weights)
    monkeypatch.setattr(posets, "LISTING_BYTES", 0)  # single draws through the walk
    sampler = biased_extension_sampler(figure1, weights)
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
    # k = 11, 60 extensions; the oracle enumerates it with cap=11
    return parse_poset(instance_to_json(generate_instance("avgdeg", "3", 11, 0)))


def test_walk_matches_oracle_on_prefix_conditions(figure1, monkeypatch):
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
        exact = {
            (kind, cond): exact_distribution(
                apply_condition(p, cond), kind, w, cap=p.k, free_map=p.free_map
            ).support
            for kind in ("uniform", "biased")
            for cond in conds
        }
        with _listing_bound(monkeypatch, 0):
            samplers = (uniform_extension_sampler(p), biased_extension_sampler(p, w))
            for kind, sampler in zip(("uniform", "biased"), samplers):
                for cond in conds:
                    _assert_matches(sampler.draw_many(cond, 2000, rng), exact[kind, cond])


def _assert_draws_match_oracle(monkeypatch, nbytes):
    # on avgdeg_3_011_0, k = 11: a table at the default bound, the walk at 0;
    # m spans several walk chunks and ends inside one
    p = _avgdeg_3_011_0()
    weights = (1, 2, 4, 3, 5, 7, 1, 2, 4, 3, 5)
    m = 10 * _WALK_CHUNK + 7
    exacts = [
        exact_distribution(p, kind, weights, cap=11).support
        for kind in ("uniform", "biased")
    ]
    with _listing_bound(monkeypatch, nbytes):
        samplers = (uniform_extension_sampler(p), biased_extension_sampler(p, weights))
        for sampler, exact in zip(samplers, exacts):
            assert (sampler._support(FULL_CUBE).cum is not None) == (nbytes > 0)
            rng = rng_stream(42)
            draws = sampler.draw_many(FULL_CUBE, m, rng)
            assert draws.shape == (m, p.free_map.n) and draws.dtype == np.uint8
            assert draws.flags.c_contiguous
            _assert_matches(draws, exact)
            if nbytes > 0:  # a table draw takes one uniform per draw
                reference = rng_stream(42)
                reference.random(m)
                assert rng.bit_generator.state == reference.bit_generator.state
            # draw_coordinate is the projection of draw_many on the same
            # stream, and leaves the stream where draw_many does
            for coord in range(p.free_map.n):
                rng_coord = rng_stream(42)
                column = sampler.draw_coordinate(FULL_CUBE, coord, m, rng_coord)
                assert column.dtype == np.uint8
                assert np.array_equal(column, draws[:, coord])
                assert rng_coord.bit_generator.state == rng.bit_generator.state
            if nbytes > 0:
                guides = sampler._support(FULL_CUBE).values.values()
                assert _guide_kinds(guides) == {"flips", "buckets"}
            _assert_cache_bytes(sampler)


def test_walk_draws_match_oracle(monkeypatch):
    _assert_draws_match_oracle(monkeypatch, 0)


def test_table_draws_match_oracle(monkeypatch):
    _assert_draws_match_oracle(monkeypatch, LISTING_BYTES)


class _FixedUniform:
    """A generator whose uniform draws are u: one value, or one per draw."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


@pytest.mark.parametrize("u", [1 - 2**-53, 1.0])
def test_walk_top_uniform_picks_last_minimal_element(u, monkeypatch):
    # u = 1 - 2**-53 is numpy's largest uniform; u = 1.0 leaves no cumulative
    # weight above u * total, which the rounding guard handles.  Either way
    # each step takes the last minimal element.  In labels: 4 (the least
    # element), 2 of {1, 2}, 1, then 3; element 4 is never taken again.
    p = Poset.from_relations(4, [(4, 1), (4, 2), (1, 3)])
    monkeypatch.setattr(posets, "LISTING_BYTES", 0)
    sampler = biased_extension_sampler(p, (3, 1, 5, 2))
    ((_, pos),) = sampler._walk(sampler._support(FULL_CUBE), 5, _FixedUniform(u))
    assert (pos.T == [2, 1, 3, 0]).all()  # the step of each element
    draws = sampler.draw_many(FULL_CUBE, 5, _FixedUniform(u))
    expected = extension_to_bits((3, 1, 0, 2), p.free_map)
    assert [tuple(row) for row in draws.tolist()] == [expected] * 5


def _hand_built_table_sampler():
    """A sampler whose full-cube support is a hand-built table: its cum ties
    at 0.3, reaches numpy's largest uniform and rounds just above 1 before
    the last row.  Coordinate 0 never flips; coordinate 1 flips 4 times,
    once past 1 and twice at the tie; coordinate 2 flips after every row."""
    p = Poset.from_relations(3, [])
    sampler = uniform_extension_sampler(p)
    cum = np.array([0.125, 0.3, 0.3, 0.7, 0.9, 1 - 2**-53, 1 + 2**-52, 1.0])
    bits = np.array([[1] * 8, [0, 1, 0, 1, 1, 1, 1, 0], [0, 1] * 4], dtype=np.uint8)
    table = posets._Support(bits=bits, cum=cum)
    sampler._cache[_order_key(p, FULL_CUBE)] = table
    sampler._cache_bytes = table.nbytes
    return sampler


def _table_sampler(name, figure1):
    if name == "figure1":
        return uniform_extension_sampler(figure1)
    if name == "avgdeg_2_010_0":  # the draw-heavy benchmark's biased-equal sampler
        p = parse_poset(instance_to_json(generate_instance("avgdeg", "2", 10, 0)))
        return biased_extension_sampler(p, (1,) * 10)
    if name == "avgdeg_3_011_0":  # 60 rows, whose bucket guides are sized by flips
        return biased_extension_sampler(_avgdeg_3_011_0(), (1, 2, 4, 3, 5, 7, 1, 2, 4, 3, 5))
    if name == "hand_built":
        return _hand_built_table_sampler()
    # weights 10^-i: most of the 9! extensions have tiny probabilities, so
    # thousands of rows share a value-guide bucket
    return biased_extension_sampler(Poset.from_relations(9, []), [10.0**-i for i in range(9)])


def _guide_kinds(guides) -> set[str]:
    """How coordinate draws with these value guides get their bits: by
    compares of u with the cums where the bit flips ("flips", or "never"
    for a bit that never flips), or from u's bucket ("buckets")."""
    return {
        "buckets" if g.dtype == np.uint8 else "flips" if len(g) else "never" for g in guides
    }


# The value guides each case's coordinates get: together, every kind.
_TABLE_GUIDES = {
    "figure1": {"flips"},
    "avgdeg_2_010_0": {"flips"},
    "avgdeg_3_011_0": {"flips", "buckets"},
    "hand_built": {"never", "flips", "buckets"},
    "skewed_antichain9": {"buckets"},
}


@pytest.mark.parametrize("name", list(_TABLE_GUIDES))
def test_table_draws_pick_the_binary_search_row(figure1, name):
    # at every boundary u can meet, a table draw picks the row that
    # searchsorted(cum, u, side="right") picks, and a coordinate draw that
    # row's bit: on each cum and each value-guide bucket's edge g / G, and
    # on the float just below either
    sampler = _table_sampler(name, figure1)
    support = sampler._support(FULL_CUBE)
    cum = support.cum
    guides = map(posets._value_guide, support.bits, [cum] * sampler.n)
    sizes = {len(g) for g in guides if g.dtype == np.uint8}
    sizes = sorted(sizes | {2 << (len(cum) - 1).bit_length()})  # and 2 buckets per row
    if name == "skewed_antichain9":
        assert np.bincount((cum * sizes[-1]).astype(np.intp)).max() >= 1000
    edges = np.concatenate([cum] + [np.arange(G) / G for G in sizes])
    u = np.concatenate([[0.0, 1 - 2**-53], edges, np.nextafter(edges, 0)])
    u = u[u < 1]
    rows = np.searchsorted(cum, u, side="right")
    # CPU seconds of each pass over u: the rows, then each coordinate.  A
    # fix-up that loops over every draw until none moves takes seconds.
    spent = [0.0]
    for first in range(0, len(u), 1 << 16):
        chunk = u[first : first + (1 << 16)]
        start = time.process_time()
        draws = sampler.draw_many(FULL_CUBE, len(chunk), _FixedUniform(chunk))
        spent[0] += time.process_time() - start
        assert np.array_equal(draws, support.bits.T[rows[first : first + len(chunk)]])
    for coord in range(sampler.n):
        start = time.process_time()
        bits = sampler.draw_coordinate(FULL_CUBE, coord, len(u), _FixedUniform(u))
        spent.append(time.process_time() - start)
        assert np.array_equal(bits, support.bits[coord, rows])
    assert sorted(support.values) == list(range(sampler.n))
    assert _guide_kinds(support.values.values()) == _TABLE_GUIDES[name]
    assert max(spent) < 1.0, spent
    # each coordinate draw leaves the stream where draw_many does
    rng = rng_stream(51)
    draws = sampler.draw_many(FULL_CUBE, 1000, rng)
    for coord in range(sampler.n):
        rng_coord = rng_stream(51)
        column = sampler.draw_coordinate(FULL_CUBE, coord, 1000, rng_coord)
        assert np.array_equal(column, draws[:, coord])
        assert rng_coord.bit_generator.state == rng.bit_generator.state
    _assert_cache_bytes(sampler)


def _count_builds(sampler) -> list[int]:
    """Count the sampler's support builds in the returned one-item list."""
    builds, build = [0], sampler._build_support

    def counted(pc, *args):
        builds[0] += 1
        return build(pc, *args)

    sampler._build_support = counted
    return builds


def _order_key(p, cond):
    """The cache key of cond's order, applied to p from the root."""
    return apply_condition(p, cond).leq.tobytes()


def _root_conditions(monkeypatch) -> list:
    """Record the conditions the samplers apply from the root in the returned list."""
    calls, apply = [], posets.apply_condition

    def recorded(p, cond):
        calls.append(cond)
        return apply(p, cond)

    monkeypatch.setattr(posets, "apply_condition", recorded)
    return calls


def _assert_last(sampler, cond, pc):
    """The sampler's slot holds cond, its order pc and pc's key."""
    assert sampler._last == (cond, pc, None if pc is None else pc.leq.tobytes())


def _assert_same_support(a, b):
    for x, y in [(a.bits, b.bits), (a.cum, b.cum), (a.below, b.below)] + list(
        zip(a.upsets or (None, None), b.upsets or (None, None))
    ):
        assert (x is None) == (y is None)
        assert x is None or (x.dtype == y.dtype and np.array_equal(x, y))


def _assert_cache_bytes(sampler):
    assert None not in sampler._cache and None not in sampler._cache.values()
    sizes = [s.nbytes for s in sampler._cache.values()]
    assert sampler._cache_bytes == sum(sizes)
    assert sum(sizes) <= posets._CACHE_BYTES or len(sizes) == 1


def test_biased_cache_is_not_sized_by_count_tables(monkeypatch):
    # the cache is bounded in bytes, not by k: avgdeg_1_020_0's sparse count
    # tables are small, so the uniform sampler keeps 128 conditions at k = 20,
    # as the biased sampler does, whose walk keeps k masks per condition;
    # these orders' listings pass the bound, and at a bound of 0 they walk
    # without paying a failed expansion each
    monkeypatch.setattr(posets, "LISTING_BYTES", 0)
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 20, 0)))
    conds = [make_condition([(i, b)], p.free_map.n) for i in range(65) for b in (0, 1)]
    for sampler in (uniform_extension_sampler(p), biased_extension_sampler(p, (1,) * 20)):
        builds = _count_builds(sampler)
        for cond in conds:
            sampler._support(cond)
        assert builds == [130] and len(sampler._cache) == 128
        _assert_cache_bytes(sampler)
        for cond in conds[2:]:  # the 128 most recent: all cached
            sampler._support(cond)
        assert builds == [130]


def _antichain5_prefix_conditions():
    p = Poset.from_relations(5, [])
    dist = exact_distribution(p, "uniform")
    conds = sorted(
        {prefix_condition(x, i) for x in dist.support for i in range(p.free_map.n + 1)},
        key=lambda c: (len(c), c.fixed),
    )
    return p, conds


def test_support_cache_is_bounded(monkeypatch):
    # 300 distinct conditions on the 5-antichain hold fewer distinct orders:
    # each order is built once, the cache keeps the 128 used last, and the
    # first, the full cube's, is evicted, rebuilt on its next draw, and
    # still matches the oracle
    p, conds = _antichain5_prefix_conditions()
    conds = conds[:300]
    assert len(conds) == 300 and conds[0] == FULL_CUBE
    keys = [_order_key(p, cond) for cond in conds]
    orders = len(set(keys))
    assert 128 < orders < 300
    recent = list(dict.fromkeys(reversed(keys)))[:128][::-1]  # least recent first
    assert _order_key(p, FULL_CUBE) not in recent
    weights = (1, 2, 4, 3, 5)
    rng = rng_stream(43)
    # the uniform sampler on tables, the biased one on the walk
    for kind, sampler, nbytes in (
        ("uniform", uniform_extension_sampler(p), LISTING_BYTES),
        ("biased", biased_extension_sampler(p, weights), 0),
    ):
        exact = exact_distribution(p, kind, weights).support
        with _listing_bound(monkeypatch, nbytes):
            builds = _count_builds(sampler)
            for cond in conds:
                sampler.draw_many(cond, 1, rng)
            assert builds == [orders] and len(sampler._cache) == 128
            assert list(sampler._cache) == recent
            _assert_cache_bytes(sampler)
            _assert_matches(sampler.draw_many(FULL_CUBE, 3000, rng), exact)
            assert builds == [orders + 1]


def test_support_cache_is_bounded_in_bytes(monkeypatch):
    # a 9-antichain's root table is about 16 MB and each one-bit condition
    # halves it: the cache drops its least recent tables to stay in 64 MB
    p = Poset.from_relations(9, [])
    sampler = uniform_extension_sampler(p)
    conds = [FULL_CUBE] + [make_condition([(i, 1)], p.free_map.n) for i in range(7)]
    rng = rng_stream(45)
    sizes = []
    for cond in conds:
        sizes.append(sampler._support(cond).nbytes)
        sampler.draw_coordinate(cond, 35, 10, rng)  # adds a value guide
        _assert_cache_bytes(sampler)
    assert sizes[0] > 15 << 20 and sum(sizes) > posets._CACHE_BYTES
    assert list(sampler._cache) == [_order_key(p, cond) for cond in conds[1:]]
    # value guides count too, and leave with their table: 0.5 MB for each
    # free coordinate drawn under the newest condition evicts two more
    for coord in range(p.free_map.n):
        if conds[-1].is_free(coord):
            sampler.draw_coordinate(conds[-1], coord, 10, rng)
            _assert_cache_bytes(sampler)
    assert list(sampler._cache) == [_order_key(p, cond) for cond in conds[3:]]
    # the newest support stays even when it alone passes the bound
    monkeypatch.setattr(posets, "_CACHE_BYTES", 1 << 20)
    cond = make_condition([(5, 1)], p.free_map.n)
    sampler._support(cond)
    assert list(sampler._cache) == [_order_key(p, cond)]
    _assert_cache_bytes(sampler)
    # the walk's count tables count too: a 17-antichain's are 2 MB at the
    # full cube and 1.5 MB under a one-bit condition, so 4 MB holds two
    monkeypatch.setattr(posets, "_CACHE_BYTES", 4 << 20)
    p = Poset.from_relations(17, [])
    walking = uniform_extension_sampler(p)
    conds = [FULL_CUBE] + [make_condition([(i, 1)], p.free_map.n) for i in range(3)]
    for cond in conds:
        assert walking._support(cond).upsets is not None
        _assert_cache_bytes(walking)
    assert list(walking._cache) == [_order_key(p, cond) for cond in conds[2:]]


def _order_samplers(p, monkeypatch):
    """Uniform and biased samplers of p, on the table path, then on the walk:
    a loop over them runs its body for the last two at a listing bound of 0."""
    weights = (1, 2, 4, 3, 5, 7, 6, 8)[: p.k]
    for nbytes in (LISTING_BYTES, 0):
        monkeypatch.setattr(posets, "LISTING_BYTES", nbytes)
        yield uniform_extension_sampler(p)
        yield biased_extension_sampler(p, weights)
    monkeypatch.setattr(posets, "LISTING_BYTES", LISTING_BYTES)


def test_implied_bit_shares_the_parent_support(monkeypatch):
    # on the 3-antichain, 1 < 2 and 3 < 1 imply 3 < 2: the prefix that adds
    # it has its parent's order, so it returns the parent's support, with
    # no build and no condition applied from the root; the shared support's
    # value guides are counted once
    p = Poset.from_relations(3, [])
    x = (1, 0, 0)
    parent, child = prefix_condition(x, 2), prefix_condition(x, 3)
    assert _order_key(p, parent) == _order_key(p, child)
    roots = _root_conditions(monkeypatch)
    rng = rng_stream(47)
    for sampler in _order_samplers(p, monkeypatch):
        support = sampler._support(parent)
        order = sampler._last[1]
        builds = _count_builds(sampler)
        roots.clear()
        assert sampler._support(child) is support
        assert builds == [0] and roots == []
        assert sampler._last[1] is order and len(sampler._cache) == 1
        _assert_last(sampler, child, apply_condition(p, parent))
        for cond in (parent, child):
            sampler.draw_coordinate(cond, 1, 10, rng)
            sampler.draw_coordinate(cond, 0 if cond is parent else 2, 10, rng)
            _assert_cache_bytes(sampler)
        assert sampler._cache_bytes == support.nbytes
        assert support.cum is None or sorted(support.values) == [0, 1, 2]


def test_parent_path_matches_the_root(monkeypatch):
    # every prefix of every extension of the small posets, in prefix order:
    # each condition but the full cube folds its last bit into the order of
    # its parent, the condition met last, and the order and support equal
    # those that apply_condition gives from the root
    roots = _root_conditions(monkeypatch)
    for p in small_posets():
        points = exact_distribution(p, "uniform").support
        prefixes = [
            (cond, apply_condition(p, cond), _order_key(p, cond))
            for x in points
            for cond in (prefix_condition(x, i) for i in range(p.free_map.n + 1))
        ]
        for sampler in _order_samplers(p, monkeypatch):
            checked = {}  # key -> the last support checked for it
            roots.clear()
            for cond, pc, key in prefixes:
                support = sampler._support(cond)
                _assert_last(sampler, cond, pc)
                if checked.get(key) is not support:
                    _assert_same_support(support, sampler._build_support(pc))
                    checked[key] = support
            assert roots == [FULL_CUBE] * (len(points) - 1)  # each point's first prefix
            _assert_cache_bytes(sampler)


_CHAIN_WEIGHTINGS = sorted(WEIGHTINGS) + ["uniform"]


def _chain_sampler(p, weighting):
    if weighting == "uniform":
        return uniform_extension_sampler(p)
    return biased_extension_sampler(p, WEIGHTINGS[weighting](p.k))


def _assert_chain_tables(sampler, points):
    """Along every prefix chain of the points, the sampler's table equals a
    fresh listing of the conditioned order, bit for bit: its bits, its cum
    (the listing's probabilities, normalized and summed as the table does)
    and, where the table keeps them, its positions and step totals."""
    p = sampler.poset
    for x in points:
        for i in range(p.free_map.n + 1):
            cond = prefix_condition(tuple(x), i)
            support = sampler._support(cond)
            pos, bits, prob, totals = extension_rows(
                apply_condition(p, cond), sampler._pairs, sampler._float_weights
            )
            cum = np.cumsum(prob / prob.sum())
            cum[-1] = 1.0
            assert np.array_equal(support.bits, bits) and np.array_equal(support.cum, cum)
            assert (support.totals is None) == (totals is None)
            if totals is not None:
                assert support.totals.dtype == totals.dtype
                assert np.array_equal(support.totals, totals) and np.array_equal(support.pos, pos)


@pytest.mark.parametrize(
    "instance",
    [
        ("avgdeg", "1", 10, 4),
        ("avgdeg", "4", 14, 0),
        ("avgdeg", "3", 11, 0),
        ("bipartite", "0.5", 7, 1),
    ],
    ids=lambda instance: "_".join(map(str, instance)),
)
@pytest.mark.parametrize("weighting", _CHAIN_WEIGHTINGS)
def test_chain_tables_equal_a_fresh_listing(instance, weighting):
    # a child of a table filters its parent's rows (and, biased with
    # integer weights, updates their step totals) instead of listing its
    # order again; each chain table is the listing's, bit for bit
    p = parse_poset(instance_to_json(generate_instance(*instance)))
    sampler = _chain_sampler(p, weighting)
    _assert_chain_tables(sampler, sampler.draw_many(FULL_CUBE, 20, rng_stream(48)).tolist())
    if weighting in ("equal", "ramp"):
        assert sampler._support(FULL_CUBE).totals.dtype == np.uint8


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(small_posets()), ranked_posets()),
    st.sampled_from(_CHAIN_WEIGHTINGS),
    st.integers(0, 2**32 - 1),
)
def test_chain_tables_equal_a_fresh_listing_on_small_orders(p, weighting, seed):
    sampler = _chain_sampler(p, weighting)
    _assert_chain_tables(sampler, sampler.draw_many(FULL_CUBE, 4, rng_stream(seed)).tolist())


def _count_listings(monkeypatch) -> list[int]:
    """Count the calls of posets.extension_rows in the returned one-item list."""
    listings, listing = [0], posets.extension_rows

    def counted(*args):
        listings[0] += 1
        return listing(*args)

    monkeypatch.setattr(posets, "extension_rows", counted)
    return listings


def test_only_roots_and_children_of_walks_are_listed(monkeypatch):
    # over one point's prefix chain on avgdeg_1_010_4: with integer weights
    # and uniform, every child filters its parent's table, so the root's is
    # the one listing; float weights list each new order; at a bound of 0
    # each new order is counted and walks, with no listing; and at a bound
    # just under the root's rows, the root is counted and walks, its child
    # (a child of a walk) is the one listing, and the rest filter its table
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    n = p.free_map.n
    x = uniform_extension_sampler(p).draw_many(FULL_CUBE, 1, rng_stream(49))[0].tolist()
    chain = [prefix_condition(tuple(x), i) for i in range(n + 1)]
    orders = len({_order_key(p, cond) for cond in chain})
    assert orders > 10
    listings = _count_listings(monkeypatch)
    for weighting, want in (("uniform", 1), ("equal", 1), ("ramp", 1), ("float", orders)):
        sampler = _chain_sampler(p, weighting)
        listings[0] = 0
        assert all(sampler._support(cond).cum is not None for cond in chain)
        assert listings == [want], weighting
    with _listing_bound(monkeypatch, 0):
        for weighting in ("uniform", "equal"):
            sampler = _chain_sampler(p, weighting)
            listings[0] = 0
            assert all(sampler._support(cond).cum is None for cond in chain)
            assert listings == [0], weighting
    for weighting, totals in (("uniform", None), ("equal", np.dtype(np.uint8))):
        bound = count_extensions(p) * posets._row_bytes(p.k, n, totals) - 1
        with _listing_bound(monkeypatch, bound):
            sampler = _chain_sampler(p, weighting)
            listings[0] = 0
            supports = [sampler._support(cond) for cond in chain]
            assert supports[0].cum is None and all(s.cum is not None for s in supports[1:])
            assert listings == [1], weighting


def test_an_evicted_order_past_the_bound_walks_again_without_listing(monkeypatch):
    # the 6-antichain's 720 rows pass the bound and a one-bit child's 360 fit;
    # a cache of one support evicts each order when the next is built: the
    # root is counted and walks again, never listed, from the same support,
    # while its child's table is listed again
    p = Poset.from_relations(6, [])
    child = make_condition([(0, 1)], p.free_map.n)
    monkeypatch.setattr(posets, "LISTING_BYTES", 400 * posets._row_bytes(6, p.free_map.n))
    monkeypatch.setattr(posets, "_CACHE_BYTES", 1)
    listings = _count_listings(monkeypatch)
    steps = [(FULL_CUBE, 0), (child, 1), (FULL_CUBE, 1), (child, 2), (FULL_CUBE, 2)]
    for sampler in (uniform_extension_sampler(p), biased_extension_sampler(p, (1,) * 6)):
        builds = _count_builds(sampler)
        listings[0] = 0
        roots = []
        for cond, listed in steps:
            support = sampler._support(cond)
            assert list(sampler._cache) == [_order_key(p, cond)] and listings == [listed]
            assert (support.cum is None) == (cond == FULL_CUBE)
            if cond == FULL_CUBE:
                roots.append(support)
        assert builds == [5]
        for support in roots[1:]:
            _assert_same_support(roots[0], support)


@pytest.mark.parametrize("weighting", _CHAIN_WEIGHTINGS)
def test_the_count_picks_the_path_of_the_listing_bound(weighting, monkeypatch):
    # a listing's last level is its largest, so at a bound of count x row
    # bytes extension_rows lists the order and a sampler gets its table, and
    # one byte below it the listing raises and the sampler walks
    for p in small_posets():
        sampler = _chain_sampler(p, weighting)
        orders = [p] + [orient_pair(p, i, j, 1) for i, j in p.free_map.pairs]
        for pc in orders:
            rows = count_extensions(pc) * sampler._row_bytes
            for nbytes in (rows, rows - 1):
                with _listing_bound(monkeypatch, nbytes):
                    support = sampler._build_support(pc)
                    try:
                        listed = extension_rows(pc, sampler._pairs, sampler._float_weights)
                    except TooLarge:
                        assert nbytes < rows and support.cum is None
                    else:
                        assert nbytes == rows and len(support.cum) == len(listed[2])


def _listing_fits(monkeypatch) -> list:
    """Record, in the returned list, whether each extension_rows call fits
    the bound: a listing that raises TooLarge is recorded and raised."""
    fits, listing = [], posets.extension_rows

    def checked(*args):
        try:
            out = listing(*args)
        except TooLarge:
            fits.append(False)
            raise
        fits.append(True)
        return out

    monkeypatch.setattr(posets, "extension_rows", checked)
    return fits


def test_no_order_past_the_bound_is_listed(monkeypatch):
    # over walk-rooted prefix chains on avgdeg_1_010_4, at a bound of half
    # the root's rows, orders on both sides of the bound are met, and every
    # listing a sampler makes fits: none is tried and abandoned
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    points = uniform_extension_sampler(p).draw_many(FULL_CUBE, 4, rng_stream(51)).tolist()
    chains = [prefix_condition(tuple(x), i) for x in points for i in range(p.free_map.n + 1)]
    fits = _listing_fits(monkeypatch)
    for weighting in _CHAIN_WEIGHTINGS:
        sampler = _chain_sampler(p, weighting)
        with _listing_bound(monkeypatch, count_extensions(p) * sampler._row_bytes // 2):
            fits.clear()
            paths = {sampler._support(cond).cum is None for cond in chains}
        assert paths == {True, False} and fits and all(fits), weighting


def _counted_orders(monkeypatch) -> list:
    """Record each _upset_counts result in the returned list."""
    results, count = [], posets._upset_counts

    def counted(p):
        results.append(count(p))
        return results[-1]

    monkeypatch.setattr(posets, "_upset_counts", counted)
    return results


def test_a_walking_order_is_counted_once(monkeypatch):
    # at a bound of 0 every order of a prefix chain walks: each is counted
    # once, and the uniform sampler walks over that same count
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    x = uniform_extension_sampler(p).draw_many(FULL_CUBE, 1, rng_stream(52))[0].tolist()
    chain = [prefix_condition(tuple(x), i) for i in range(p.free_map.n + 1)]
    orders = len({_order_key(p, cond) for cond in chain})
    results = _counted_orders(monkeypatch)
    with _listing_bound(monkeypatch, 0):
        for weighting in ("uniform", "equal", "float"):
            sampler = _chain_sampler(p, weighting)
            results.clear()
            supports = {id(s): s for s in map(sampler._support, chain)}.values()
            assert len(supports) == len(results) == orders, weighting
            if weighting == "uniform":
                assert [s.upsets for s in supports] == results


def test_a_table_roots_float_chain_counts_only_the_root(monkeypatch):
    # with float weights a child of a table is listed again, and it fits,
    # as its extensions are some of its parent's rows: it is not counted
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    x = uniform_extension_sampler(p).draw_many(FULL_CUBE, 1, rng_stream(53))[0].tolist()
    chain = [prefix_condition(tuple(x), i) for i in range(p.free_map.n + 1)]
    orders = len({_order_key(p, cond) for cond in chain})
    results = _counted_orders(monkeypatch)
    listings = _count_listings(monkeypatch)
    sampler = _chain_sampler(p, "float")
    assert all(sampler._support(cond).cum is not None for cond in chain)
    assert len(results) == 1 and listings == [orders]


def test_counts_past_the_count_cap_pick_the_path():
    # past k = 20 the counts saturate: avgdeg_2_030_0 has 2.8e20 extensions,
    # past int64, and avgdeg_1_040_0's up-set lattice passes 3 M sets in one
    # level; both counts stop early, so the biased sampler walks on each, at
    # a small peak, and draws valid extensions; avgdeg_5_021_2's 9,922
    # extensions fit, and each weighting's table is the listing's
    _run_python(
        """
import tracemalloc
import numpy as np
from subtv import FULL_CUBE, biased_extension_sampler, bits_to_extension, parse_poset, rng_stream
from subtv.instances import generate_instance, instance_to_json
from subtv.posets import LISTING_BYTES, _row_bytes, _upset_counts, extension_rows
for instance in (("2", 30, 0), ("1", 40, 0)):
    p = parse_poset(instance_to_json(generate_instance("avgdeg", *instance)))
    tracemalloc.start()
    sampler = biased_extension_sampler(p, [1] * p.k)
    draws = sampler.draw_many(FULL_CUBE, 200, rng_stream(54))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert sampler._support(FULL_CUBE).cum is None
    assert _upset_counts(p)[1][-1] == LISTING_BYTES // _row_bytes(p.k, 0) + 1
    for row in draws.tolist():
        bits_to_extension(tuple(row), p)
p = parse_poset(instance_to_json(generate_instance("avgdeg", "5", 21, 2)))
assert _upset_counts(p)[1][-1] == 9922
for weights in ([1] * 21, list(range(1, 22)), [1 / 3 + 0.1 * i for i in range(21)]):
    sampler = biased_extension_sampler(p, weights)
    support = sampler._support(FULL_CUBE)
    pos, bits, prob, totals = extension_rows(p, sampler._pairs, sampler._float_weights)
    cum = np.cumsum(prob / prob.sum())
    cum[-1] = 1.0
    assert np.array_equal(support.bits, bits) and np.array_equal(support.cum, cum)
    if totals is not None:
        assert np.array_equal(support.pos, pos) and np.array_equal(support.totals, totals)
""",
        max_bytes=1 << 30,
    )


def test_condition_after_another_applies_the_root(monkeypatch):
    # a condition whose parent was not the last one asked for is applied
    # from the root: a contradictory one returns None and adds no cache
    # entry, and so does its child, without the root; an implied one finds
    # its parent's support again, without a build
    p = Poset.from_relations(4, [])
    n = p.free_map.n
    parent = make_condition([(0, 0), (1, 1)], n)  # 2 < 1 and 1 < 3
    other = make_condition([(2, 1)], n)
    # 2 < 1 < 3 implies 2 < 3, and contradicts 3 < 2
    implied, contradictory = (make_condition([(0, 0), (1, 1), (3, b)], n) for b in (1, 0))
    grandchild = make_condition([(0, 0), (1, 1), (3, 0), (5, 1)], n)
    roots = _root_conditions(monkeypatch)
    for sampler in _order_samplers(p, monkeypatch):
        support = sampler._support(parent)
        sampler._support(other)
        keys = list(sampler._cache)
        builds = _count_builds(sampler)
        roots.clear()
        assert sampler._support(contradictory) is None
        assert roots == [contradictory] and list(sampler._cache) == keys
        _assert_last(sampler, contradictory, None)
        assert sampler._support(grandchild) is None
        assert roots == [contradictory] and list(sampler._cache) == keys
        _assert_last(sampler, grandchild, None)
        assert sampler._support(implied) is support
        assert roots == [contradictory, implied] and builds == [0]
        _assert_last(sampler, implied, apply_condition(p, parent))
        _assert_same_support(support, sampler._build_support(apply_condition(p, parent)))
        _assert_cache_bytes(sampler)


def test_estimate_applies_only_the_full_cube_from_the_root(monkeypatch):
    # the chain rule asks for each prefix right after its parent, so a
    # sampler that remembers only its last condition applies nothing but
    # the full cube from the root, on a table (k = 10) and on the walk (k = 14
    # at a listing bound of 0)
    roots = _root_conditions(monkeypatch)
    for instance, zeta in (("1", 10, 4), 0.9), (("4", 14, 0), 0.95):
        if instance[1] == 14:
            monkeypatch.setattr(posets, "LISTING_BYTES", 0)
        p = parse_poset(instance_to_json(generate_instance("avgdeg", *instance)))
        sampler = biased_extension_sampler(p, (1,) * p.k)
        report = estimate_tv(sampler, uniform_extension_sampler(p), zeta, 0.5, seed=3)
        assert report.total_samples > 0
        assert roots and all(cond == FULL_CUBE for cond in roots)
        roots.clear()


def test_threads_sharing_a_sampler_get_their_own_reports():
    # four estimates, switching every microsecond, share one sampler: their
    # interleaved conditions send orders to the root, yet each report
    # equals the one a fresh sampler gives on one thread
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    known = uniform_extension_sampler(p)

    def run(sampler, seed):
        report = estimate_tv(sampler, known, 0.9, 0.5, seed=seed)
        return report.per_sample_terms, report.total_samples

    seeds = (1, 2, 3, 4)
    alone = {seed: run(biased_extension_sampler(p, (1,) * p.k), seed) for seed in seeds}
    shared = biased_extension_sampler(p, (1,) * p.k)
    results = {}

    def work(seed):
        results[seed] = run(shared, seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone
    _assert_cache_bytes(shared)


def test_support_cache_under_threads():
    # more threads than cores, switching every microsecond, draw from one
    # sampler: each condition is built once, and the cache's byte count is
    # the bytes it holds, value guides included
    p = parse_poset(instance_to_json(generate_instance("avgdeg", "1", 10, 4)))
    sampler = biased_extension_sampler(p, (1,) * 10)
    builds = _count_builds(sampler)
    conds = [FULL_CUBE] + [make_condition([(i, b)], p.free_map.n) for i in range(8) for b in (0, 1)]
    deadline = time.monotonic() + 60

    def work(seed):
        rng = rng_stream(46, seed)
        for _ in range(3):
            for j in rng.permutation(len(conds)):
                if time.monotonic() > deadline:
                    return
                sampler.draw_coordinate(conds[j], 8 + int(rng.integers(4)), 50, rng)

    count = (os.cpu_count() or 1) + 4  # more threads than cores
    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert time.monotonic() <= deadline
    assert builds == [len(conds)] and len(sampler._cache) == len(conds)
    _assert_cache_bytes(sampler)


def test_no_numpy_ma_import():
    # in numpy 2.4 a plain np.unique call imports numpy.ma, which costs
    # set-up time and memory; neither sampler path nor counting may pull it in
    code = """
import sys
from subtv import FULL_CUBE, Poset, biased_extension_sampler, count_extensions, rng_stream
from subtv import posets, uniform_extension_sampler
p = Poset.from_relations(6, [(1, 2), (3, 4)])
rng = rng_stream(1)
for nbytes in (posets.LISTING_BYTES, 0):
    posets.LISTING_BYTES = nbytes
    uniform_extension_sampler(p).draw_many(FULL_CUBE, 50, rng)
    biased_extension_sampler(p, (1, 2, 3, 4, 5, 6)).draw_many(FULL_CUBE, 50, rng)
assert count_extensions(p) == 180
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    _run_python(code)


def conditioned(dist, prefix):
    """dist restricted to the strings agreeing with the prefix, renormalized."""
    kept = {x: m for x, m in dist.support.items() if prefix.agrees(x) and m > 0}
    total = sum(kept.values(), Fraction(0))
    return ExactDistribution({x: m / total for x, m in kept.items()}, dist.n)


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
