"""castleqec pipeline benchmark: reproduce, scan-bound and trace-binary.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-bound --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after the other
    python3 perfbench/run.py --workload all --out runs.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --record                 # rewrite golden.json from this checkout

A run makes whole passes over the workload's commands, one after the other,
until --seconds is used up.  Each pass runs in its own fresh worker
interpreter (worker.py), so every pass starts cold like a CLI invocation, and
every output is checked against golden.json.  --seed fixes the order of the
commands in a pass.

With --trace 0 the metrics are the end-to-end ones.  Every untraced pass
samples a fixed reference job as it runs (reference.py), and its wall and
CPU times are scaled by the mean machine speed the samples measured by the
same clock; the set-up samples taken before a pass are scaled by that pass's
wall-clock speed.  wall_s and cpu_s are medians over passes and setup_s is
the median over samples, all in seconds at the reference job's nominal
speed.  peak_rss_mb is the median over passes.  A set-up sample is a fresh
interpreter that imports castleqec.cli and builds the workload's field
tables.  A run makes at least MIN_PASSES passes.
With --trace 1 every untraced pass is followed by a traced one, and the
per-layer metrics come from the median traced pass (tracer.py).  The last
line of stdout is one JSON object: correct, attempted and failed (output
rows), and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads

HERE = workloads.HERE
ROOT = workloads.ROOT
SETUP_SAMPLES = 3  # before each pass
MIN_PASSES = 2  # untraced passes per run
RUN_LIMIT_S = 170  # the whole run, worker included, ends within this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = """
import sys
from castleqec import cli
from castleqec.fields import GF
for q in sys.argv[1:]:
    GF(int(q))
"""

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    pass


def check_checkout():
    """Checks the package source and curve files are present; returns BENCHMARK.json."""
    missing = [p for p in ("src/castleqec/cli.py", "curves/suzuki8.json", "curves/hermitian-gf16.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(f"not a castleqec checkout: missing {', '.join(missing)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = [[item["name"] for item in spec[key]] for key in ("workloads", "end_to_end", "per_layer")]
    reported = [
        list(workloads.WORKLOADS),
        [name for name, _ in END_TO_END],
        [name for name, _, _ in tracing.per_layer_specs(workloads.REPRO_TARGETS)],
    ]
    if listed != reported:
        raise BenchError("BENCHMARK.json does not list the workloads and metrics this benchmark reports")
    return spec


def child_env(budget):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["CASTLEQEC_BUDGET"] = str(budget)
    return env


def run_child(argv, budget, deadline):
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(budget), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def setup_samples(workload, deadline):
    """Wall times of SETUP_SAMPLES fresh interpreters importing the CLI and building the fields."""
    argv = [sys.executable, "-c", SETUP_CODE, *map(str, workload.fields)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_child(argv, workload.budget, deadline)
        samples.append(time.perf_counter() - start)
    return samples


def worker(spec, budget, deadline):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    return json.loads(run_child(argv, budget, deadline).strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def lower_median(items, key):
    return sorted(items, key=key)[(len(items) - 1) // 2]


def run_workload(name, seed, seconds, trace):
    """One run of one workload; returns the result record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[name]
    setup, passes, traced = [], [], []
    start = time.monotonic()
    while True:
        if not trace:
            samples = setup_samples(workload, deadline)
        passes.append(worker({"workload": name, "seed": seed, "trace": 0}, workload.budget, deadline))
        if trace:
            traced.append(worker({"workload": name, "seed": seed, "trace": 1}, workload.budget, deadline))
        else:
            setup += [sample * passes[-1]["speed"]["wall"] for sample in samples]
        # start another round only if it is expected to end within half a round of --seconds
        elapsed = time.monotonic() - start
        if len(passes) >= (1 if trace else MIN_PASSES) and elapsed + elapsed / len(passes) / 2 > seconds:
            break

    walls = [p["wall_s"] for p in passes]
    if trace:
        units = {m: unit for m, unit, _ in tracing.per_layer_specs(workloads.REPRO_TARGETS)}
        median_pass = lower_median(traced, key=lambda p: p["wall_s"])
        values = dict.fromkeys(units, 0)
        values.update(median_pass["layers"])
        values["trace.overhead_s"] = median_pass["wall_s"] - lower_median(walls, key=float)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["speed"]["wall"] for p in passes),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p["cpu_s"] * p["speed"]["cpu"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    first = passes[0]
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": first["python"],
        "numpy": first["numpy"],
        "backend": first["backend"],
        "castleqec_budget": workload.budget,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(),
    }
    everything = passes + traced
    problems = [problem for p in everything for problem in p["problems"]]
    failed = sum(p["failed"] for p in everything)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(p["attempted"] for p in everything),
        "failed": failed,
        "metrics": metrics,
    }
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
            "passes": {"wall_s": walls, "cpu_s": [p["cpu_s"] for p in passes],
                       "speed": [p["speed"] for p in passes]},
            "setup_s": setup,
            "problems": problems, "result": result}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(record):
    """Human-readable summary: every end-to-end metric by name with its unit."""
    result, walls = record["result"], record["passes"]["wall_s"]
    print(f"{record['workload']}: seed {record['seed']}, {len(walls)} untraced passes, "
          f"backend {record['env']['backend']}, CASTLEQEC_BUDGET={record['env']['castleqec_budget']}")
    for problem in record["problems"][:10]:
        print(f"  FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        q1, q3 = quartiles(walls)
        print(f"  unscaled wall_s per pass: median {statistics.median(walls):.4g} s, q1 {q1:.4g}, q3 {q3:.4g}, "
              f"n {len(walls)}")
        speeds = record["passes"]["speed"]
        print("  machine speed per pass, by wall and CPU clock: "
              + ", ".join(f"{speed['wall']:.3f}/{speed['cpu']:.3f}" for speed in speeds))
        q1, q3 = quartiles(record["setup_s"])
        print(f"  setup_s samples: median {statistics.median(record['setup_s']):.4g} s, "
              f"q1 {q1:.4g}, q3 {q3:.4g}, n {len(record['setup_s'])}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':28} {rate:.6g} ratio ({result['failed']} of {result['attempted']} rows failed)")
    print("env " + json.dumps(record["env"], sort_keys=True))


def record_golden():
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps({"workload": name, "record": True})]
        golden[name] = json.loads(run_child(argv, workload.budget, time.monotonic() + 600))
        print(f"{name}: {len(golden[name])} commands, {sum(len(e['rows']) for e in golden[name])} rows")
    with open(workloads.GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")


def compare(old_path, new_path):
    """Per-workload medians of each end-to-end metric, old against new."""
    def load(path):
        with open(path) as handle:
            return [json.loads(line) for line in handle if line.strip()]

    old, new = load(old_path), load(new_path)
    backends = {r["env"]["backend"] for r in old + new}
    if len(backends) > 1:
        print(f"WARNING: runs use different kernel backends ({', '.join(sorted(backends))}); "
              "the compiled kernel is several times faster, so these numbers are not comparable")
    for name in workloads.WORKLOADS:
        for metric, unit in END_TO_END:
            sides = [[r["result"]["metrics"][metric]["value"] for r in runs
                      if r["workload"] == name and not r["trace"]] for runs in (old, new)]
            if not all(sides):
                continue
            a, b = (statistics.median(side) for side in sides)
            print(f"{name:14} {metric:12} {a:10.4g} -> {b:10.4g} {unit:3} "
                  f"({(b - a) / a:+.1%}; n {len(sides[0])} vs {len(sides[1])})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's record (result and environment) to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --out files")
    parser.add_argument("--record", action="store_true", help="rewrite golden.json from this checkout")
    args = parser.parse_args()

    try:
        if args.compare:
            compare(*args.compare)
            return 0
        spec = check_checkout()
        seconds = args.seconds or spec["run_seconds"]
        if args.record:
            record_golden()
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            record = run_workload(name, args.seed, seconds, args.trace)
            report(record)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps(record) + "\n")
        if len(names) == 1:
            print(json.dumps(record["result"]))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
