"""The benchmark's workloads: named subtv instances, the library call each
one times, and the exact answers every result is checked against.

Instances are `subtv gen` coordinates, so each one is reproducible from its
name alone.  The sampler under test is the `biased-equal` preset and the
known distribution is `uniform`, exactly as the CLI builds them.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    name: str
    instance: tuple[str, str, int, int]  # (family, param, size, index)
    mode: str  # "estimate" -> estimate_tv, "test" -> identity_test
    params: dict
    k: int
    n: int
    extensions: int
    exact_tv: Fraction
    max_samples: int  # budget passed as max_total_samples, about 3x a typical run
    seeds: int  # estimator seeds per run, from its --seed; one call each fits in 40 s


WORKLOADS = {
    w.name: w
    for w in (
        # table build: most GBAS calls meet a new condition and enumerate its
        # extensions, about 90% of a call.  The ROADMAP's heavy case
        # avgdeg_1_010_1 (50400 extensions) has the same profile, but at 10-15 s
        # a call plus a 10 s oracle (2-core Xeon VM) only 2-3 calls fit in a
        # run, too few for a steady median across seeds.
        Workload(
            name="enum-heavy",
            instance=("avgdeg", "1", 10, 4),
            mode="estimate",
            params={"zeta": 0.9, "delta": 0.5},
            k=10,
            n=29,
            extensions=4262,
            exact_tv=Fraction(104588099, 265130496),
            max_samples=7_000_000,
            seeds=12,  # a call's time varies by +-20% with its seed
        ),
        # draw-bound: 56M table draws on about ten cached tables, through the tester
        Workload(
            name="draw-heavy",
            instance=("avgdeg", "2", 10, 0),
            mode="test",
            params={"epsilon": 0.26, "eta": 0.56, "delta": 0.1},
            k=10,
            n=4,
            extensions=8,
            exact_tv=Fraction(1, 4),
            max_samples=170_000_000,
            seeds=3,  # a call's time varies by about 1% with its seed
        ),
        # walk path: k=14 is above ENUM_CAP, so every draw is the sequential
        # Python walk and no table is built.  zeta=0.95, delta=0.5 keep a call
        # near 7 s (2-core Xeon VM); the ROADMAP's zeta=0.8, delta=0.3 takes
        # about 20 s, so too few calls would fit in a run.
        Workload(
            name="walk-k14",
            instance=("avgdeg", "4", 14, 0),
            mode="estimate",
            params={"zeta": 0.95, "delta": 0.5},
            k=14,
            n=6,
            extensions=36,
            exact_tv=Fraction(1, 6),
            max_samples=200_000,
            seeds=4,  # a call's time varies by about 5% with its seed
        ),
    )
}


WARM_UP_S = 0.25


def warm_up() -> None:
    """Spin for WARM_UP_S before a short timing that follows idle time.

    A core that was idle runs slowly for the first tens of ms of work: a
    40 ms set-up in a fresh interpreter read up to 2x slow without this.
    """
    end = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < end:
        pass


def import_subtv():
    """Import subtv from this checkout's src/ and from nowhere else."""
    if not (SRC / "subtv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no subtv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import subtv

    if Path(subtv.__file__).resolve().parent != SRC / "subtv":
        raise SystemExit(f"perfbench: imported subtv from {subtv.__file__}, not {SRC}")
    return subtv


def call_seeds(w: Workload, seed: int) -> list[int]:
    """The estimator seeds of one benchmark run: the same for the same --seed."""
    return [seed * 1000 + i for i in range(w.seeds)]


def instance_text(w: Workload) -> str:
    from subtv import instances

    return instances.instance_to_json(instances.generate_instance(*w.instance))


def equal_weights(k: int) -> tuple[Fraction, ...]:
    """The `biased-equal` preset's weights."""
    return (Fraction(1),) * k


def build_samplers(subtv, poset):
    """(unknown, known): the biased-equal sampler and the uniform distribution."""
    unknown = subtv.biased_extension_sampler(poset, equal_weights(poset.k))
    known = subtv.uniform_extension_sampler(poset)
    return unknown, known


def oracle_tv(subtv, poset) -> Fraction:
    """Exact TV between the two presets; cap=k makes k > ENUM_CAP enumerable."""
    p = subtv.exact_distribution(poset, "biased", equal_weights(poset.k), cap=poset.k)
    q = subtv.exact_distribution(poset, "uniform", cap=poset.k)
    return subtv.exact_tv(p, q)


def call(subtv, w: Workload, unknown, known, seed: int, threads: int = 1):
    """Run the workload's library call; returns (EstimateReport, verdict or None)."""
    if w.mode == "test":
        verdict = subtv.identity_test(
            unknown, known, **w.params, seed=seed, threads=threads,
            max_total_samples=w.max_samples,
        )
        return verdict.estimate, verdict.decision
    report = subtv.estimate_tv(
        unknown, known, **w.params, seed=seed, threads=threads,
        max_total_samples=w.max_samples,
    )
    return report, None


def check(w: Workload, report, decision, exact: Fraction) -> str | None:
    """Why the result is wrong against the exact TV, or None when it is right.

    The estimate must lie within its zeta of the exact distance; a verdict
    must be the one the tester's promise forces (ACCEPT when the exact
    distance is at most epsilon, REJECT when it is at least eta).
    """
    zeta = report.params.zeta
    err = abs(report.dtv_estimate - float(exact))
    if err > zeta:
        return f"estimate {report.dtv_estimate:.6f} is {err:.6f} from exact {exact}, above zeta={zeta}"
    if w.mode == "test":
        if float(exact) <= w.params["epsilon"] and decision != "ACCEPT":
            return f"verdict {decision}, but exact TV {exact} <= epsilon"
        if float(exact) >= w.params["eta"] and decision != "REJECT":
            return f"verdict {decision}, but exact TV {exact} >= eta"
    return None


def check_instance(w: Workload, poset, known) -> str | None:
    got = (poset.k, known.n, known.total)
    want = (w.k, w.n, w.extensions)
    if got != want:
        return f"instance {w.instance} has (k, n, extensions)={got}, expected {want}"
    return None
