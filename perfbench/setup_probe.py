"""Time set-up in a fresh interpreter: `import subtv` through built samplers.

Usage: python3 setup_probe.py SRC_DIR < instance.json
Prints one JSON line: {"setup_s": seconds, "extensions": count}.
Set-up is timed in CPU seconds of the process, as the benchmark's calls are.
It covers subtv's own import, parse and closure, count_extensions
(inside the uniform sampler's constructor) and construction of both samplers.
numpy is imported before the clock starts: its import (with OpenBLAS's
thread start) is most of a fresh process's set-up and swings by up to 1.7x
with the load on a shared machine, which would hide subtv's share.  The
core is warmed up before the clock starts too (see workloads.warm_up).
"""

import json
import sys
import time
from fractions import Fraction

import numpy  # noqa: F401  (imported untimed, see above)
from workloads import warm_up


def main() -> None:
    text = sys.stdin.read()
    warm_up()
    start = time.process_time()
    sys.path.insert(0, sys.argv[1])
    import subtv

    poset = subtv.parse_poset(text)
    known = subtv.uniform_extension_sampler(poset)
    subtv.biased_extension_sampler(poset, (Fraction(1),) * poset.k)
    elapsed = time.process_time() - start
    print(json.dumps({"setup_s": elapsed, "extensions": known.total}))


if __name__ == "__main__":
    main()
