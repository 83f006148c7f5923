"""The benchmark's own test: its workloads still mean what they did.

Each workload name must regenerate the instance with the (k, n, extension
count) pinned in workloads.py, and the oracle must still give the pinned
exact TV.  This catches drift in the instance generator or the oracle.
Run it with `python3 -m pytest perfbench` from the root of the repository.
"""

import pytest

from workloads import WORKLOADS, build_samplers, import_subtv, instance_text, oracle_tv


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instance_and_exact_tv(name):
    subtv = import_subtv()
    w = WORKLOADS[name]
    poset = subtv.parse_poset(instance_text(w))
    unknown, known = build_samplers(subtv, poset)
    assert (poset.k, unknown.n, known.n, known.total) == (w.k, w.n, w.n, w.extensions)
    assert oracle_tv(subtv, poset) == w.exact_tv
