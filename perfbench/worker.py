"""One pass of one workload in a fresh interpreter: set up, run, check outputs.

Started by run.py with the checkout root as working directory, the package
source on PYTHONPATH and the workload's CASTLEQEC_BUDGET in the environment.
Every command goes through castleqec.cli.main in this process, one after the
other (a closed loop with a single client).  An untraced pass runs under a
reference.Sampler, and its result carries the mean machine speeds the sampler
measured.  Prints one JSON object.

    python3 worker.py '{"workload": "scan-bound", "seed": 1, "trace": 0}'
    python3 worker.py '{"workload": "scan-bound", "record": true}'
"""

import contextlib
import io
import json
import random
import resource
import sys
import time

import castleqec
import numpy as np
from castleqec import cli, fields, kernels, repro

import reference
import tracer as tracing
import workloads


def run_pass(commands, sampler=None):
    """Run every command once; returns (wall_s, cpu_s, [(exit code, stdout)]).

    With a reference.Sampler, the times leave out its samples.
    """
    outputs = []
    with sampler or contextlib.nullcontext():
        cpu0, start = time.process_time(), time.perf_counter()
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash fails the command's rows, not the run
                    code = f"{type(exc).__name__}: {exc}"
            outputs.append((code, out.getvalue()))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    if sampler:
        wall, cpu = wall - sampler.wall_s, cpu - sampler.cpu_s
    return wall, cpu, outputs


def check_descriptors():
    """The benchmark's scan curve files must build the evaluation sets repro builds in code."""
    problems = []
    pairs = (
        ("maximal-gf64", repro._maximal_q8),
        ("maximal-gf81", repro._maximal_q9),
        ("maximal-2-6", repro._maximal_2_6),
    )
    built = []

    def capture(ev, ms, budget):
        built.append(ev)
        return []

    original, repro._maximal_rows = repro._maximal_rows, capture
    try:
        for _, runner in pairs:
            runner(None)
    finally:
        repro._maximal_rows = original
    for (name, _), ev in zip(pairs, built):
        with open(f"{workloads.CURVES}/{name}.json") as handle:
            ours = castleqec.evaluation_set_from_json(json.load(handle))
        if ours.n != ev.n or ours.dimension_set() != ev.dimension_set():
            problems.append(f"{name}.json does not build the evaluation set repro builds in code")
    return problems


def record(name):
    """Run each command once and return its golden entry; refuses failing output."""
    entries = []
    for argv in workloads.commands(name):
        _, _, [(code, stdout)] = run_pass([argv])
        entry = {"argv": argv, **workloads.expected_output(stdout)} if code == 0 else None
        if entry is None or workloads.failed_rows(entry, code, stdout, workloads.WORKLOADS[name].repro):
            raise SystemExit(f"{' '.join(argv)}: exit {code}; not recording failing output")
        entries.append(entry)
    return entries


def measure(spec):
    """Set up, then run one pass over the workload; traced if spec["trace"]."""
    name, trace = spec["workload"], bool(spec["trace"])
    workload = workloads.WORKLOADS[name]
    golden = workloads.load_golden()[name]
    order = list(range(len(golden)))
    random.Random(spec["seed"]).shuffle(order)
    expected = [golden[i] for i in order]

    build, tracer = tracing.Tracer(), tracing.Tracer()
    uninstall = tracing.install(build) if trace else (lambda: None)
    for q in workload.fields:
        fields.GF(q)
    uninstall()
    problems = check_descriptors() if name == "scan-bound" else []

    uninstall = tracing.install(tracer) if trace else (lambda: None)
    sampler = None if trace else reference.Sampler()
    try:
        wall, cpu, outputs = run_pass([want["argv"] for want in expected], sampler)
    finally:
        uninstall()

    attempted = failed = 0
    for want, (code, stdout) in zip(expected, outputs):
        attempted += len(want["rows"])
        lost = workloads.failed_rows(want, code, stdout, workload.repro)
        failed += lost
        if lost:
            problems.append(f"{' '.join(want['argv'])}: exit {code}, {lost} rows differ from golden")
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "speed": sampler and sampler.speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": kernels.BACKEND,
    }
    if trace:
        result["layers"] = tracing.layer_values(tracer, wall)
        result["layers"]["fields.GF.build_s"] = build.total_s("fields.GF.build")
    return result


def main():
    spec = json.loads(sys.argv[1])
    if spec.get("record"):
        print(json.dumps(record(spec["workload"])))
    else:
        print(json.dumps(measure(spec)))


if __name__ == "__main__":
    main()
