"""subtv benchmark: one workload per invocation, every result oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports subtv from ./src and from
nowhere else, so it exits non-zero when the sources are missing.  Workloads
are listed in perfbench/workloads.py and BENCHMARK.json.  All timed calls use
one thread in this process (set-up in fresh child processes).

--trace 0 measures the end-to-end metrics, with tracing off.  A run makes
estimate_tv / identity_test calls, each on fresh samplers, with the run's
estimator seeds in turn (a fixed number per workload, derived from N; see
call_seeds), until one more call is expected to end past S seconds; each seed
is called at least once.  Times are CPU seconds of the process
(time.process_time), as the calls use one thread: on a shared host the wall
clock also counts the time the hypervisor gives the CPU to someone else.
  call_cpu_s    mean over the run's seeds of each seed's median call time,
                so a faster program repeats the same work, not other work
  draws_per_s   total_samples of one call per seed / the sum of those times
  setup_s       median of fresh interpreters (one before each call, at least
                5), `import subtv` to built samplers, numpy imported untimed
  oracle_cpu_s  median over slices of 0.5 s (at least one call), before each
                call and after the last, of one slice's time per call of
                exact_distribution x2 + exact_tv
  peak_rss_mb   peak RSS of this process
--trace 1 measures the per-layer metrics: one untraced call, the same call
traced (see tracing.py), the same call with threads=2, and two probes.

Every call is checked against the oracle's exact TV: the estimate within its
zeta, and a verdict the tester's promise allows.  The traced run also checks
draw accounting, and that tracing and threads leave the report unchanged.
error_rate (failed / attempted calls) is printed, and carried by the
`attempted` and `failed` keys of the last line, a JSON object.  The exit code
is 1 when any check fails.  A record of the run (provenance, every call,
spans) is written to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

from tracing import Tracer, layer_metrics, span_records
from workloads import (
    ROOT,
    SRC,
    WORKLOADS,
    build_samplers,
    call,
    call_seeds,
    check,
    check_instance,
    import_subtv,
    instance_text,
    oracle_tv,
    warm_up,
)

HERE = Path(__file__).resolve().parent
RUNS_DIR = HERE / "runs"
SETUP_PROBES = 5
ORACLE_SLICE = 0.5
WALK_PROBE_DRAWS = 3000
TESTER_PROBE_CALLS = 2000


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def timed_call(subtv, w, text, exact, seed, threads=1, tracer=None):
    """One workload call on a fresh poset and fresh samplers (built untimed).

    Returns (record, report); report is None when the call raised.
    """
    unknown, known = build_samplers(subtv, subtv.parse_poset(text))
    if tracer is not None:
        tracer.trace_samplers(unknown, known)
        outer = tracer.span("tester" if w.mode == "test" else "estimator")
    else:
        outer = nullcontext()
    rec = {"seed": seed, "threads": threads, "traced": tracer is not None}
    start, cpu = time.perf_counter(), time.process_time()

    def stop():
        rec["wall_s"] = time.perf_counter() - start
        rec["cpu_s"] = time.process_time() - cpu

    try:
        with outer:
            report, decision = call(subtv, w, unknown, known, seed, threads)
    except Exception:  # a failed call is counted, not fatal
        stop()
        rec["error"] = traceback.format_exc(limit=4)
        print(f"call failed (seed {seed}):\n{rec['error']}", file=sys.stderr)
        return rec, None
    stop()
    p = report.params
    rec.update(
        total_samples=report.total_samples,
        estimate=report.dtv_estimate,
        decision=decision,
        params={"alpha": p.alpha, "gamma": p.gamma, "k": p.k, "zeta": p.zeta, "delta": p.delta},
        error=check(w, report, decision, exact),
    )
    if rec["error"]:
        print(f"wrong result (seed {seed}): {rec['error']}", file=sys.stderr)
    return rec, report


def probe_setup(text: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
        input=text, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def time_oracle(subtv, poset, seconds: float):
    """(exact TVs, CPU seconds per call) of oracle calls for `seconds`, at least one."""
    warm_up()  # it follows a wait for a set-up probe
    values, n = set(), 0
    start, cpu = time.perf_counter(), time.process_time()
    while not n or time.perf_counter() - start < seconds:
        values.add(oracle_tv(subtv, poset))
        n += 1
    return values, (time.process_time() - cpu) / n


def walk_probe_us(subtv, text, seed) -> float:
    """us per draw of the uniform sampler's walk path (enum_cap=0 disables tables)."""
    sampler = subtv.uniform_extension_sampler(subtv.parse_poset(text), enum_cap=0)
    rng = subtv.rng_stream(seed, 1)
    t0 = time.perf_counter()
    sampler.draw_coordinate(subtv.FULL_CUBE, 0, WALK_PROBE_DRAWS, rng)
    return 1e6 * (time.perf_counter() - t0) / WALK_PROBE_DRAWS


def tester_probe_s(subtv, text, report) -> float:
    """identity_test's own time per call, its estimate_tv returning `report`.

    This is the identity_test span minus its estimate_tv span, with
    draw-heavy's test parameters on every workload.
    """
    params = WORKLOADS["draw-heavy"].params
    unknown, known = build_samplers(subtv, subtv.parse_poset(text))
    saved = subtv.tester.estimate_tv
    subtv.tester.estimate_tv = lambda *args, **kwargs: report
    try:
        t0 = time.perf_counter()
        for _ in range(TESTER_PROBE_CALLS):
            subtv.identity_test(unknown, known, **params)
        return (time.perf_counter() - t0) / TESTER_PROBE_CALLS
    finally:
        subtv.tester.estimate_tv = saved


def run_end_to_end(subtv, w, text, seed, seconds):
    """Calls on the run's seeds in turn until one more is expected to end past
    `seconds`, each seed at least once.

    A set-up probe and an oracle slice (ORACLE_SLICE seconds, at least one
    oracle call) precede each call, and one more slice follows the last, so
    those metrics are sampled across the whole run, not at one moment.
    Returns (exact TV, calls, metric values, their samples, problems, extra).
    """
    poset = subtv.parse_poset(text)
    seeds = call_seeds(w, seed)
    values, oracle_times = set(), []

    def oracle_slice():
        more, per_call = time_oracle(subtv, poset, ORACLE_SLICE)
        values.update(more)
        oracle_times.append(per_call)
        return next(iter(more))

    setups, calls = [], []
    start = time.perf_counter()
    while True:
        setups.append(probe_setup(text))
        exact = oracle_slice()
        calls.append(timed_call(subtv, w, text, exact, seeds[len(calls) % len(seeds)])[0])
        elapsed = time.perf_counter() - start
        if len(calls) >= len(seeds) and elapsed * (len(calls) + 1) / len(calls) > seconds:
            break
    oracle_slice()
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(text))

    problems = []
    if len(values) != 1:
        problems.append(f"the oracle is not deterministic: {sorted(values)}")
    for probe in setups:
        if probe["extensions"] != w.extensions:
            problems.append(f"set-up counted {probe['extensions']} extensions, expected {w.extensions}")
    by_seed = defaultdict(list)
    for c in calls:
        by_seed[c["seed"]].append(c)
    cpu, drawn = [], []
    for s in seeds:
        cpu.append(statistics.median(c["cpu_s"] for c in by_seed[s]))
        totals = {c["total_samples"] for c in by_seed[s] if "total_samples" in c}
        if len(totals) > 1:
            problems.append(f"seed {s} drew {sorted(totals)} samples in its calls, not one count")
        drawn.append(min(totals, default=0))
    samples = {
        "call_cpu_s": cpu,
        "setup_s": [probe["setup_s"] for probe in setups],
        "oracle_cpu_s": oracle_times,
    }
    metrics = {
        "call_cpu_s": statistics.fmean(cpu),
        "draws_per_s": sum(drawn) / sum(cpu),
        "setup_s": statistics.median(samples["setup_s"]),
        "oracle_cpu_s": statistics.median(oracle_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return exact, calls, metrics, samples, problems, {}


def run_traced(subtv, w, text, seed):
    """One untraced call, the same call traced, the same call with threads=2.

    Checks that all three reports agree and that the draws add up, then
    derives the per-layer metrics from the traced call's spans.
    """
    tracer = Tracer()
    problems = []
    threads = min(2, nproc())
    with tracer.patch_modules(subtv):
        exact = oracle_tv(subtv, subtv.parse_poset(text))
    ref, ref_report = timed_call(subtv, w, text, exact, seed)
    with tracer.patch_modules(subtv):
        traced, report = timed_call(subtv, w, text, exact, seed, tracer=tracer)
    par, par_report = timed_call(subtv, w, text, exact, seed, threads=threads)
    calls = [ref, traced, par]
    if None in (ref_report, report, par_report):
        return exact, calls, {}, {}, problems, {"spans": span_records(tracer.spans)}
    # A report is a pure function of (instance, flags, seed).
    for label, other in (("traced", report), (f"threads={threads}", par_report)):
        if (other.per_sample_terms, other.total_samples) != (
            ref_report.per_sample_terms, ref_report.total_samples
        ):
            problems.append(f"{label} report differs from the untraced threads=1 report")
    layers = layer_metrics(tracer.spans, report)
    alpha = report.params.alpha
    if layers["gbas.draws"] + alpha != report.total_samples:
        problems.append(
            f"draw accounting: sum of GbasResult.draws {layers['gbas.draws']} + alpha {alpha}"
            f" != total_samples {report.total_samples}"
        )
    if layers["posets.draws_requested"] < layers["gbas.draws"]:
        problems.append(
            f"draw accounting: draws requested {layers['posets.draws_requested']}"
            f" < draws used {layers['gbas.draws']}"
        )
    layers.update({
        "posets.walk_uniform_us": walk_probe_us(subtv, text, seed),
        "estimator.abs_err": abs(report.dtv_estimate - float(exact)),
        "estimator.threads2_speedup": ref["wall_s"] / par["wall_s"],
        "tester.self_s": tester_probe_s(subtv, text, report),
        "trace.overhead_frac": traced["cpu_s"] / ref["cpu_s"] - 1.0,
    })
    return exact, calls, layers, {}, problems, {"threads": threads, "spans": span_records(tracer.spans)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(w, seed) -> dict:
    import numpy
    from subtv.instances import instance_name

    return {
        "workload": w.name,
        "instance": instance_name(*w.instance),
        "mode": w.mode,
        "params": w.params,
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    end_to_end, per_layer = declared_metrics()
    subtv = import_subtv()
    w = WORKLOADS[args.workload]
    text = instance_text(w)
    poset = subtv.parse_poset(text)
    problem = check_instance(w, poset, build_samplers(subtv, poset)[1])
    if args.trace:
        units = per_layer
        exact, calls, values, samples, problems, extra = run_traced(subtv, w, text, args.seed)
    else:
        units = end_to_end
        exact, calls, values, samples, problems, extra = run_end_to_end(
            subtv, w, text, args.seed, args.seconds
        )
    if problem:
        problems.insert(0, problem)
    if exact != w.exact_tv:
        problems.append(f"oracle TV {exact} differs from the pinned {w.exact_tv}")
    failed = sum(1 for c in calls if c.get("error"))
    problems.extend(c["error"].strip().splitlines()[-1] for c in calls if c.get("error"))
    if not values:
        values = dict.fromkeys(units, 0.0)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")

    prov = provenance(w, args.seed)
    print(f"workload {w.name}: {prov['instance']} (k={w.k}, n={w.n}, {w.extensions} extensions), "
          f"{w.mode} {w.params}, seed {args.seed}, trace {args.trace}")
    print(f"provenance: git {prov['git_sha']}, python {prov['python']}, numpy {prov['numpy']}, "
          f"nproc {prov['nproc']}")
    print(f"exact TV {exact} = {float(exact):.6f}")
    for c in calls:
        if "params" in c:
            p = c["params"]
            print(f"  call seed={c['seed']} threads={c['threads']} traced={c['traced']}: "
                  f"{c['cpu_s']:.3f} s CPU, {c['wall_s']:.3f} s wall, "
                  f"total_samples {c['total_samples']}, estimate {c['estimate']:.4f}"
                  f"{', ' + c['decision'] if c['decision'] else ''} "
                  f"(alpha={p['alpha']}, gamma={p['gamma']:.4f}, k={p['k']})")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        spread = ""
        if len(samples.get(name, ())) > 1:
            xs = samples[name]
            spread = f" (from {len(xs)} samples; min {min(xs):.6g}, max {max(xs):.6g})"
        print(f"{name:32s} {values[name]:.6g} {unit}{spread}")
    if args.trace:
        print(f"gbas.draw_yield = gbas.draws {values['gbas.draws']} / posets.draws_requested "
              f"{values['posets.draws_requested']}")
    print(f"error_rate {failed / len(calls):.3g} ({failed} of {len(calls)} calls failed)")
    for p in problems:
        print(f"FAIL: {p}")

    RUNS_DIR.mkdir(exist_ok=True)
    record = {"provenance": prov, "exact_tv": str(exact), "calls": calls, "problems": problems,
              "samples": samples, "metrics": metrics, **extra}
    out = RUNS_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
