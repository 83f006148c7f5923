"""Synthetic poset instance families with reproducible naming.

Instances are named ``<family>_<param>_<size:03d>_<index>`` and the name
alone seeds the generator, so a corpus can be regenerated from names.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .core import rng_stream
from .errors import CycleError, InvalidParameter
from .posets import ELEMENT_CAP, Poset

FAMILIES = ("avgdeg", "bipartite")


def instance_name(family: str, param, size: int, index: int) -> str:
    return f"{family}_{param}_{size:03d}_{index}"


def instance_seed(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _avgdeg_relations(k: int, avg_indegree: float, rng: np.random.Generator) -> list[list[int]]:
    # Random DAG: a random permutation fixes the edge direction; each
    # forward pair is kept with the probability that yields the target
    # average indegree.
    if k < 2:
        return []
    p_edge = min(1.0, 2.0 * avg_indegree / (k - 1))
    perm = rng.permutation(k)
    relations = []
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p_edge:
                relations.append([int(perm[i]) + 1, int(perm[j]) + 1])
    return relations


def _bipartite_relations(k: int, p: float, rng: np.random.Generator) -> list[list[int]]:
    # Every cross pair (a, b) is oriented a before b with probability p,
    # the other way otherwise; resample until the orientation is acyclic.
    half = (k + 1) // 2
    a_side = range(1, half + 1)
    b_side = range(half + 1, k + 1)
    for _ in range(10_000):
        relations = []
        for a in a_side:
            for b in b_side:
                if rng.random() < p:
                    relations.append([a, b])
                else:
                    relations.append([b, a])
        try:
            Poset.from_relations(k, [(a, b) for a, b in relations])
        except CycleError:
            continue
        return relations
    raise InvalidParameter(f"could not draw an acyclic bipartite orientation for k={k}, p={p}")


def generate_instance(family: str, param, size: int, index: int) -> dict:
    """An instance document for the given family coordinates."""
    if not 1 <= size <= ELEMENT_CAP:  # the sizes an instance document may have
        raise InvalidParameter(f"size must lie in 1..{ELEMENT_CAP}, got {size}")
    if family not in FAMILIES:
        raise InvalidParameter(f"unknown family {family!r}, expected one of {FAMILIES}")
    try:
        value = float(param)
    except (TypeError, ValueError):
        raise InvalidParameter(f"param must be a number, got {param!r}") from None
    name = instance_name(family, param, size, index)
    rng = rng_stream(instance_seed(name))
    if family == "avgdeg":
        if not 0.0 <= value < np.inf:
            raise InvalidParameter(f"average indegree must be finite and non-negative, got {param}")
        relations = _avgdeg_relations(size, value, rng)
    else:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameter(f"orientation probability must lie in [0, 1], got {param}")
        relations = _bipartite_relations(size, value, rng)
    return {"name": name, "elements": size, "relations": relations}


def instance_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"
