"""Benchmark of the rookmonoids engine: one workload per run, in this process.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Workloads (see BENCHMARK.json for why each was chosen):
    classify-or4   ``congruences verify --family or --n 4`` through cli.main
    structure-or6  universe, table, Green classes, ideals, predicted families
    closures-or6   seed-drawn principal closures on a prebuilt OR_6 table

Runs from the root of a source checkout and imports the package from its
``src`` directory.  After one untimed warm-up job, jobs run back to back
until ``--seconds`` have passed, and every output is checked against
``expected.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced jobs and
reports per-layer metrics.  ``--smoke`` runs every workload on OR_4.
End-to-end times are in calibrated seconds (see calibrate.py); the raw
seconds are printed and recorded beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the environment and every sample (and, when traced, every span), is
written to ``perfbench/out``.  Exit code 0 when every output was correct,
1 on any mismatch, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
MAX_EXCEPTIONS = 5

COUNTS = (
    "core.elements", "green.ideals", "families.predicted", "congruences.seeds",
    "congruences.lattice_size", "congruences.closure_classes",
)
# Per-layer metrics printed with --trace 1, in BENCHMARK.json order.  Counts
# and core.table_mb are computed, not timed: they repeat exactly.
PER_LAYER = (
    ("core.enumerate_s", "s"), ("core.table_s", "s"),
    ("core.table_mb", "MB"), ("core.elements", "count"),
    ("green.partition_s", "s"), ("green.report_s", "s"),
    ("green.ideals_s", "s"), ("green.ideals", "count"),
    ("families.predict_s", "s"), ("families.predicted", "count"),
    ("families.verify_s", "s"),
    ("congruences.normal_subgroups_s", "s"),
    ("congruences.is_congruence_s", "s"),
    ("congruences.is_congruence_call_s", "s"),
    ("congruences.is_congruence_calls", "count"),
    ("congruences.lattice_s", "s"), ("congruences.seeds", "count"),
    ("congruences.lattice_size", "count"),
    ("congruences.closure_s", "s"), ("congruences.closure_p50_s", "s"),
    ("congruences.closure_p90_s", "s"), ("congruences.closure_classes", "count"),
    ("cli.main_s", "s"),
    ("setup.core.enumerate_s", "s"), ("setup.core.table_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload on OR_4, for the benchmark's own tests")
    return parser.parse_args(argv)


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment():
    import numpy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def probe_setup(name, degree):
    """(set-up seconds, calibration seconds) of SETUP_PROBES fresh
    interpreters, each timed inside."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(degree)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        elapsed, cal = done.stdout.split()[-2:]
        samples.append((float(elapsed), float(cal)))
    return samples


def calibrated(samples):
    """Median of (seconds, calibration seconds) pairs, in calibrated seconds."""
    from calibrate import CAL_REF_S

    return statistics.median(s / c for s, c in samples) * CAL_REF_S


def run_jobs(workload, seconds, tracer):
    """One untimed warm-up job, then jobs until ``seconds`` have passed.

    With a tracer, odd-numbered jobs run traced.  Returns (wall seconds,
    calibration seconds) of the untraced and of the traced jobs, operations
    attempted, and failures.  The calibration time of a job is the mean of
    the loop's time right before and right after it.
    """
    from calibrate import calibrate

    walls = {False: [], True: []}
    attempted, failures, exceptions = 0, [], 0
    deadline = None
    index = 0
    while deadline is None or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        workload.prepare()
        cal = calibrate()
        try:
            if traced:
                with tracer.installed(), tracer.run(index):
                    start = time.perf_counter()
                    output = workload.job()
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                output = workload.job()
                wall = time.perf_counter() - start
            cal = (cal + calibrate()) / 2
            count, failed = workload.check(output)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            exceptions += 1
            count, failed, wall = 1, [f"job {index} raised an exception"], None
        attempted += count
        failures += failed
        if index > 0 and wall is not None:
            walls[traced].append((wall, cal))
        if exceptions >= MAX_EXCEPTIONS:
            break
        if deadline is None:
            deadline = time.perf_counter() + seconds
        index += 1
    return walls, attempted, failures


def quantile(values, q):
    """The q-th decile of the values (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(tracer, walls):
    """Per-layer medians over the traced jobs, counts, and tracing overhead."""
    runs = tracer.summarize()
    jobs = [run for key, run in runs.items() if key != "setup"]
    values = {}
    for name, *_ in spans.LAYERS:
        values[f"{name}_s"] = statistics.median(run["self"].get(name, 0.0) for run in jobs)

    def calls(name):
        return [d for run in jobs for d in run["calls"].get(name, [])]

    setup = runs.get("setup", {"self": {}})["self"]
    values["setup.core.enumerate_s"] = setup.get("core.enumerate", 0.0)
    values["setup.core.table_s"] = setup.get("core.table", 0.0)

    is_congruence = calls("congruences.is_congruence")
    values["congruences.is_congruence_call_s"] = quantile(is_congruence, 5)
    values["congruences.is_congruence_calls"] = statistics.median(
        len(run["calls"].get("congruences.is_congruence", [])) for run in jobs
    )
    closures = calls("congruences.closure")
    values["congruences.closure_p50_s"] = quantile(closures, 5)
    values["congruences.closure_p90_s"] = quantile(closures, 9)

    counts = {}
    for run_counts in tracer.counts.values():
        counts.update(run_counts)
    values["core.table_mb"] = counts.get("core.table_mb", 0.0)
    for name in COUNTS:
        values[name] = counts.get(name, 0)

    traced = statistics.median(w for w, _ in walls[True])
    untraced = statistics.median(w for w, _ in walls[False])
    values["trace.wall_s"] = traced
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_s"] = traced - untraced
    values["trace.unattributed_s"] = statistics.median(run["self"]["job"] for run in jobs)
    return values


def counts_repeat(tracer):
    """Computed counts must be the same for every traced job."""
    job_counts = [c for key, c in tracer.counts.items() if key != "setup"]
    return all(c == job_counts[0] for c in job_counts)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rookmonoids" / "__init__.py").is_file():
        sys.stderr.write(f"package source not found under {SRC}\n")
        return 2
    # Before the first numpy import, here and in the set-up probes: one thread.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path.insert(0, str(SRC))

    import calibrate
    import jobs

    if not Path(jobs.rm.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"imported rookmonoids from {jobs.rm.__file__}, not {SRC}\n")
        return 2
    if args.workload not in jobs.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(jobs.WORKLOADS)}\n")
        return 2
    cls, degree = jobs.WORKLOADS[args.workload]
    if args.smoke:
        degree = jobs.SMOKE_DEGREE
    expected = json.loads((HERE / "expected.json").read_text())["universes"][f"OR{degree}"]
    OUT.mkdir(exist_ok=True)

    tracer = spans.Tracer(jobs.rm) if args.trace else None
    setup_samples = [] if tracer else probe_setup(args.workload, degree)
    if tracer:
        with tracer.installed(), tracer.run("setup"):
            state = cls.setup(degree)
    else:
        state = cls.setup(degree)
    workload = cls(state, degree, args.seed, expected, OUT)
    walls, attempted, failures = run_jobs(workload, args.seconds, tracer)

    timed = bool(walls[False]) and (tracer is None or bool(walls[True]))
    metrics = {}
    if timed and tracer:
        if not counts_repeat(tracer):
            failures.append("computed counts differ between traced jobs")
        values = layer_metrics(tracer, walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    elif timed:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "wall_s": {"value": calibrated(walls[False]), "unit": "s"},
            "setup_s": {"value": calibrated(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    failed = min(len(failures), attempted)
    correct = timed and not failures
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    env = environment()
    record = {
        "workload": args.workload, "degree": degree, "seed": args.seed,
        "seed_used": cls.seeded, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": env, "result": result,
        "calibration_ref_s": calibrate.CAL_REF_S,
        "sample_fields": ["seconds", "calibration seconds"],
        "samples": {"wall_s": walls[False], "traced_wall_s": walls[True],
                    "setup_s": setup_samples},
        "failures": failures,
    }
    if tracer:
        record["span_fields"] = ["name", "start", "end", "parent", "run_id"]
        record["spans"] = tracer.spans
    suffix = "-smoke" if args.smoke else ""
    out_file = OUT / f"{args.workload}{suffix}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")

    seed_note = "drawn from the seed" if cls.seeded else "independent of the seed"
    print(f"{args.workload} on OR_{degree}, seed {args.seed} (inputs {seed_note}), "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for message in failures[:10]:
        print(f"FAILED: {message}")
    if not tracer and timed:
        raw = [w for w, _ in walls[False]]
        print(f"  wall_s       median of {len(raw)} jobs; raw seconds: median "
              f"{statistics.median(raw):.6f}, p90 {quantile(raw, 9):.6f}")
        print(f"  setup_s      median of {len(setup_samples)} set-ups; raw seconds: median "
              f"{statistics.median(s for s, _ in setup_samples):.6f}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate   {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
