#!/usr/bin/env python3
"""Survey the bundled synthetic samplers against the uniform-extension
distribution over a generated corpus.

For each instance and sampler the identity tester runs once; the row shows
the estimated distance, the number of conditional samples consumed, and the
accept/reject verdict.  Instances whose encoding has no free bit are
skipped (there is nothing to estimate).
"""

import argparse
import json
import sys
import time

from subtv import identity_test, parse_poset, uniform_extension_sampler
from subtv.cli import build_sampler
from subtv.instances import generate_instance

DEFAULT_CORPUS = [
    ("avgdeg", 1, 6, 0),
    ("avgdeg", 1, 6, 1),
    ("avgdeg", 2, 7, 0),
    ("avgdeg", 2, 7, 2),
    ("bipartite", 0.5, 7, 1),
    ("bipartite", 0.2, 8, 1),
]


def samplers_for(poset):
    """The CLI's presets: uniform, biased-equal, and weights 1..k (biased-ramp)."""
    ramp = "biased:" + ",".join(str(w) for w in range(1, poset.k + 1))
    specs = {"uniform": "uniform", "biased-equal": "biased-equal", "biased-ramp": ramp}
    return {name: build_sampler(poset, spec) for name, spec in specs.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--eta", type=float, default=0.61)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'instance':<22} {'dim':>4} {'sampler':<14} {'estd_dtv':>9} {'#samples':>12} {'A/R':>4} {'secs':>7}")
    for family, param, size, index in DEFAULT_CORPUS:
        doc = generate_instance(family, param, size, index)
        poset = parse_poset(json.dumps(doc))
        dim = poset.free_map.n
        if dim == 0:
            print(f"{doc['name']:<22} {dim:>4} (single extension, skipped)")
            continue
        for name, sampler in samplers_for(poset).items():
            known = uniform_extension_sampler(poset)
            started = time.perf_counter()
            verdict = identity_test(
                sampler, known, args.epsilon, args.eta, args.delta, seed=args.seed
            )
            secs = time.perf_counter() - started
            row = verdict.estimate
            flag = "R" if verdict.decision == "REJECT" else "A"
            print(
                f"{doc['name']:<22} {dim:>4} {name:<14} {row.dtv_estimate:>9.4f} "
                f"{row.total_samples:>12} {flag:>4} {secs:>7.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
