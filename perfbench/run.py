"""Benchmark of the compactons package: evolution runs and analysis queries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 30 --trace 0

Workloads: evolve-dkdv, queries (see README.md).  With
--trace 0 the last line of standard output is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics, and the
spans are written to perfbench/out/.  A run whose output check fails exits
with status 1 and prints no result.
"""

import os
import sys
import time


def _process_age():
    """Seconds since this process started, read from /proc (0 where unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except OSError:
        return 0.0
    start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_START = _process_age()
_T0 = time.perf_counter()

# One BLAS thread: dense eigensolves are steadier on a small shared host, and
# the setting must be in place before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# (name, unit) of every metric, in the order they are printed
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
]
PER_LAYER_COUNTS = [
    ("evolution.rhs.calls", "count"),
    ("evolution.fft.calls", "count"),
    ("evolution.steps.accepted", "count"),
    ("evolution.krylov.solves", "count"),
    ("profiles.build_compacton.calls", "count"),
    ("profiles.compacton_integrals.calls", "count"),
    ("functionals.minimize_in_family.iterations", "count"),
    ("spectral.make_operator.calls", "count"),
    ("cli.bytes_written", "bytes"),
]
PER_LAYER_SELF = [
    "evolution.rhs",
    "evolution.integrate",
    "evolution.initial_condition",
    "evolution.diagnostics",
    "profiles.build_compacton",
    "profiles.build_nls_compacton",
    "profiles.compacton_integrals",
    "functionals.minimize_in_family",
    "functionals.report",
    "spectral.eig_green",
    "spectral.eig_b",
    "spectral.green_apply",
    "spectral.evolve_linearized",
    "cli.main",
]


def _load_program():
    src = ROOT / "src"
    if not (src / "compactons" / "__init__.py").is_file():
        sys.exit(f"error: the compactons sources are not at {src}")
    sys.path.insert(0, str(src))
    import compactons.cli
    import compactons.evolution
    import compactons.functionals
    import compactons.profiles
    import compactons.spectral

    return SimpleNamespace(
        profiles=compactons.profiles,
        functionals=compactons.functionals,
        spectral=compactons.spectral,
        evolution=compactons.evolution,
        cli=compactons.cli,
    )


def measure(workload, seconds, tracer):
    """Run whole passes over the workload's requests for `seconds`.

    Every pass executes the same requests in the same order, at least
    `min_passes` times.  Returns, per request, its best latency over the
    passes, whether it completed, and whether it is heavy; the number of
    executions and of failed ones; and, when tracing, the span and counter
    positions at each pass boundary.
    """
    from checks import CheckFailed
    from workloads import OpFailed

    requests = workload.requests()
    best = [math.inf] * len(requests)
    completed = [False] * len(requests)
    attempted = failed = passes = 0
    marks = []
    start = time.perf_counter()
    while passes < workload.min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            marks.append((len(tracer.spans), Counter(tracer.counts)))
        for i, op in enumerate(requests):
            if tracer is not None:
                tracer.query_id = i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = op.call()
                ok = True
            except OpFailed as exc:
                if not op.may_fail:
                    raise CheckFailed(f"{op.kind}: {exc}")
                ok = False
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if ok:
                op.check(out)
            best[i] = min(best[i], latency)
            completed[i] = ok
            attempted += 1
            failed += not ok
        passes += 1
    if tracer is not None:
        marks.append((len(tracer.spans), Counter(tracer.counts)))
    heavy = [op.heavy for op in requests]
    kinds = [op.kind for op in requests]
    return Measurement(best, completed, heavy, kinds, attempted, failed, passes, marks)


@dataclass
class Measurement:
    best: list  # per request, its lowest latency over the passes (s)
    completed: list
    heavy: list
    kinds: list
    attempted: int
    failed: int
    passes: int
    marks: list


def end_to_end(m, setup_s):
    """Metrics over requests, each timed by its best latency over the passes.

    The best of several executions spread over the run filters out the
    stretches of seconds in which the host runs the process slower.
    """
    done = [b for b, ok in zip(m.best, m.completed) if ok]
    heavy = [b for b, ok, h in zip(m.best, m.completed, m.heavy) if ok and h]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_s": float(np.mean(heavy)),
        "queries_per_s": len(done) / sum(m.best),
        "query_p50_ms": 1e3 * float(np.percentile(done, 50)),
        "query_p90_ms": 1e3 * float(np.percentile(done, 90)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(tracer, marks):
    """Per-pass layer figures.

    Every pass repeats the same requests, so the counts of the first pass
    repeat exactly between passes and between runs with one seed.  Self
    times are the median over passes of each pass's total.
    """
    (_, c0), (_, c1) = marks[0], marks[1]
    counts = {name: c1[name] - c0[name] for name, _ in PER_LAYER_COUNTS}
    per_pass = [tracer.self_times(a, b) for (a, _), (b, _) in zip(marks, marks[1:])]
    out = {name: {"value": counts[name], "unit": unit} for name, unit in PER_LAYER_COUNTS}
    steps = counts["evolution.steps.accepted"]
    out["evolution.rhs_per_step"] = {
        "value": counts["evolution.rhs.calls"] / steps if steps else 0.0,
        "unit": "calls/step",
    }
    for name in PER_LAYER_SELF:
        out[name + ".self_s"] = {"value": float(np.median([p.get(name, 0.0) for p in per_pass])), "unit": "s"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = _load_program()
    sys.path.insert(0, str(HERE))
    import spans as tracing
    from checks import CheckFailed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    tracer = tracing.Tracer() if args.trace else None
    record = tracer.count if tracer is not None else (lambda name, amount: None)
    try:
        workload = WORKLOADS[args.workload](args.seed, record, workdir)
        workload.warm_up()
        setup_s = _AGE_AT_START + (time.perf_counter() - _T0)
        if tracer is not None:
            tracing.instrument(tracer, program)
        m = measure(workload, args.seconds, tracer)
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(m, setup_s)
    metrics = per_layer(tracer, m.marks) if tracer is not None else e2e
    print(
        f"{args.workload} seed={args.seed}: {m.passes} passes of {len(m.best)} requests, "
        f"{m.attempted} executions ({m.failed} failed), heavy share of completed requests "
        f"{sum(h for h, ok in zip(m.heavy, m.completed) if ok) / max(1, sum(m.completed)):.3f}",
        file=sys.stderr,
    )
    if tracer is not None:
        tracer.write(
            OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "passes": m.passes, "end_to_end_traced": e2e},
        )
    result = {"correct": True, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        requests = [list(r) for r in zip(m.kinds, m.heavy, m.completed, m.best)]
        json.dump({"result": result, "inputs": workload.inputs, "requests": requests}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
