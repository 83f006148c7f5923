import pytest
from hypothesis import strategies as st

from subtv import Poset


@pytest.fixture
def figure1():
    # diamond-ish order: 1 below everything, 2 below 4; pairs (2,3), (3,4) free
    return Poset.from_relations(4, [(1, 2), (1, 3), (2, 4)])


@pytest.fixture
def antichain3():
    return Poset.from_relations(3, [])


@pytest.fixture
def chain3():
    return Poset.from_relations(3, [(1, 2), (2, 3)])


def small_posets():
    """Desk-scale posets (k <= 8) used for structural sweeps."""
    return [
        Poset.from_relations(1, []),
        Poset.from_relations(2, [(1, 2)]),
        Poset.from_relations(3, []),
        Poset.from_relations(3, [(1, 2), (2, 3)]),
        Poset.from_relations(4, [(1, 2), (1, 3), (2, 4)]),
        Poset.from_relations(4, []),
        Poset.from_relations(5, [(1, 3), (2, 3), (3, 4)]),
        Poset.from_relations(6, [(1, 2), (3, 4), (5, 6)]),
        Poset.from_relations(8, [(1, 2), (2, 3), (4, 5), (6, 7), (1, 8)]),
    ]


@st.composite
def relation_lists(draw, max_k=6):
    # any 1-based pairs at all: self-pairs and cycles included
    k = draw(st.integers(1, max_k))
    return k, draw(st.lists(st.tuples(st.integers(1, k), st.integers(1, k)), max_size=10))


@st.composite
def ranked_posets(draw, max_k=6):
    # each pair oriented by the elements' ranks in a random permutation
    k, pairs = draw(relation_lists(max_k))
    rank = draw(st.permutations(range(k)))
    return Poset.from_relations(k, [(a, b) if rank[a - 1] < rank[b - 1] else (b, a) for a, b in pairs])


# The biased samplers' weightings: equal and integer weights, whose step
# totals are exact integers, and float weights, whose are not.
WEIGHTINGS = {
    "equal": lambda k: [1] * k,
    "ramp": lambda k: list(range(1, k + 1)),
    "float": lambda k: [1 / 3 + 0.1 * i for i in range(k)],
}
