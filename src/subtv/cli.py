"""Command-line surface: distance estimation, identity testing, oracle
queries, CNF export, and instance generation.

`test` is the estimator at zeta = (eta - epsilon) / 2 plus a threshold,
so the two commands share one run path and one report.

Exit codes: 0 success or ACCEPT, 1 usage or parameter error, 2 sampling
budget exhausted, 3 REJECT.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import instances, oracle
from .errors import BudgetExhausted, Error, UsageError
from .estimator import estimate_tv
from .posets import (
    Poset,
    biased_extension_sampler,
    check_weights,
    encode_cnf,
    parse_poset,
    uniform_extension_sampler,
)
from .tester import REJECT, identity_test

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_REJECT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subtv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("instance", help="poset instance file (JSON)")
        p.add_argument("--sampler", required=True, help="uniform | biased-equal | biased:w1,w2,...")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--max-samples", type=int, default=None,
            help="cap on the draws made, each marginal's unused batch tail included",
        )
        p.add_argument("--format", choices=("table", "json"), default="table")

    est = sub.add_parser("estimate", help="estimate the TV distance from the uniform-extension distribution")
    add_run_flags(est)
    est.add_argument("--zeta", type=float, default=0.3)
    est.add_argument("--delta", type=float, default=0.2)

    tst = sub.add_parser("test", help="accept/reject identity test against the uniform-extension distribution")
    add_run_flags(tst)
    tst.add_argument("--epsilon", type=float, default=0.01)
    tst.add_argument("--eta", type=float, default=0.61)
    tst.add_argument("--delta", type=float, default=0.1)

    odtv = sub.add_parser("oracle-dtv", help="exact TV distance between two sampler specs")
    odtv.add_argument("instance")
    odtv.add_argument("--p", required=True, help="first sampler spec")
    odtv.add_argument("--q", required=True, help="second sampler spec")

    gen = sub.add_parser("gen", help="emit a synthetic poset instance")
    gen.add_argument("--family", choices=instances.FAMILIES, required=True)
    gen.add_argument("--param", required=True, help="average indegree (avgdeg) or orientation probability (bipartite)")
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--index", type=int, default=0)
    gen.add_argument("--out", default=None, help="output path (default stdout)")

    cnf = sub.add_parser("encode-cnf", help="export the instance as a DIMACS CNF")
    cnf.add_argument("instance")
    cnf.add_argument("--cnf-out", required=True)

    return parser


def parse_weight(token: str) -> Fraction:
    token = token.strip()
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token or "E" in token:
            return Fraction(*float(token).as_integer_ratio())
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"bad weight {token!r}: {exc}") from exc


def parse_sampler_spec(spec: str, k: int) -> tuple[str, tuple | None]:
    if spec == "uniform":
        return "uniform", None
    if spec == "biased-equal":
        return "biased", (Fraction(1),) * k
    if spec.startswith("biased:"):
        weights = tuple(parse_weight(t) for t in spec[len("biased:"):].split(","))
        try:  # the samplers' rule; the exact weights go on to the oracle
            check_weights(k, weights)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        return "biased", weights
    raise UsageError(f"unknown sampler spec {spec!r}")


def build_sampler(poset: Poset, spec: str):
    kind, weights = parse_sampler_spec(spec, poset.k)
    if kind == "uniform":
        return uniform_extension_sampler(poset)
    return biased_extension_sampler(poset, weights)


def _load_poset(path: str) -> Poset:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read instance {path!r}: {exc}") from exc
    return parse_poset(text)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    dtv = "-" if report["estd_dtv"] is None else f"{report['estd_dtv']:.4f}"
    verdict = report["verdict"] or "-"
    print(f"{'instance':<28} {'dim':>4} {'estd_dtv':>9} {'#samples':>12} {'A/R':>4}")
    print(f"{report['instance']:<28} {report['dim']:>4} {dtv:>9} {report['samples']:>12} {verdict:>4}")


def _run(args, flags: dict, call) -> int:
    """Run one sampling command and emit its report; the exit code follows it.

    call(unknown, known, max_total_samples=) runs the command and
    returns (EstimateReport, verdict letter or None, params).  When the
    budget runs out, the report is partial: the mean of the terms so far,
    the draws made, and params holding only the command's flags.
    """
    poset = _load_poset(args.instance)
    unknown = build_sampler(poset, args.sampler)
    known = uniform_extension_sampler(poset)
    started = time.perf_counter()
    try:
        report, verdict, params = call(unknown, known, max_total_samples=args.max_samples)
        estd, samples, partial = report.dtv_estimate, report.total_samples, False
        code = EXIT_REJECT if verdict == "R" else EXIT_OK
    except BudgetExhausted as exc:
        terms = exc.partial_terms
        estd = sum(terms) / len(terms) if terms else None
        samples, verdict, params, partial, code = exc.draws, None, flags, True, EXIT_BUDGET
    run = {"sampler": args.sampler, "max_samples": args.max_samples}
    _emit(
        {"instance": args.instance, "dim": unknown.n, "estd_dtv": estd, "samples": samples,
         "verdict": verdict, "params": params | run, "seed": args.seed,
         "wall_time": time.perf_counter() - started, "partial": partial},
        args.format,
    )
    return code


def cmd_estimate(args) -> int:
    def call(unknown, known, **budget):
        report = estimate_tv(unknown, known, args.zeta, args.delta, args.seed, **budget)
        return report, None, asdict(report.params)

    return _run(args, {"zeta": args.zeta, "delta": args.delta}, call)


def cmd_test(args) -> int:
    def call(unknown, known, **budget):
        verdict = identity_test(
            unknown, known, args.epsilon, args.eta, args.delta, args.seed, **budget
        )
        inner = {f"est_{k}": v for k, v in asdict(verdict.estimate.params).items()}
        letter = "R" if verdict.decision == REJECT else "A"
        return verdict.estimate, letter, asdict(verdict.params) | inner

    return _run(args, {"epsilon": args.epsilon, "eta": args.eta, "delta": args.delta}, call)


def cmd_oracle_dtv(args) -> int:
    poset = _load_poset(args.instance)
    dists = []
    for spec in (args.p, args.q):
        kind, weights = parse_sampler_spec(spec, poset.k)
        dists.append(oracle.exact_distribution(poset, kind, weights))
    tv = oracle.exact_tv(dists[0], dists[1])
    print(f"{tv} ≈ {float(tv):.6f}")
    return EXIT_OK


def cmd_gen(args) -> int:
    doc = instances.generate_instance(args.family, args.param, args.size, args.index)
    text = instances.instance_to_json(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_encode_cnf(args) -> int:
    poset = _load_poset(args.instance)
    Path(args.cnf_out).write_text(encode_cnf(poset))
    return EXIT_OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "test": cmd_test,
    "oracle-dtv": cmd_oracle_dtv,
    "gen": cmd_gen,
    "encode-cnf": cmd_encode_cnf,
}


def run_cli(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
