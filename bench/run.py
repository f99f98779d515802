"""piezoband benchmark: one workload per process, checked, metrics as JSON.

    python3 bench/run.py --workload sweep_csv --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The line before it starts with ``report`` and records the environment,
the seed, the op counts and the latency tail. See bench/README.md.
"""

from __future__ import annotations

import os

# One process generates the load; keep BLAS single-threaded in it and in
# the set-up probes it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep_csv", "wide_window", "capacitance_study")
# Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def time_setup(args) -> float:
    """Wall time from starting a fresh interpreter until its first op would run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    probe = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    # wait() with a timeout polls in steps of up to 50 ms, which would
    # quantize the measurement; block instead and let a timer kill a hang.
    killer = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
    killer.start()
    try:
        code = probe.wait()
    finally:
        killer.cancel()
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return time.perf_counter() - t0


# Nominal time of ``reference_work`` on an unloaded run of the machine this
# benchmark was built on; op times are quoted at that machine speed.
REFERENCE_S = 4.5e-3


def reference_work() -> float:
    """Time a fixed computation that does not touch piezoband.

    It mixes numpy calls and interpreter work, as the solver does. The
    machine is shared and, for minutes at a time, runs everything 20-80%
    slower, in thread CPU time as much as in wall time; timing this next to
    every op measures how fast the machine is at that moment.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 4096)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(80):
        total += float(np.sum(np.sin(x * i)))
    n = 0
    for i in range(16000):
        n += i * i
    return time.perf_counter() - t0


class Runner:
    """Whole passes over a workload's op pool, in seed-permuted order."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.order = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.reference = [reference_work()]

    def one_pass(self, tracer=None) -> list[tuple[int, float, float]]:
        """Every op of the pool once; (pool index, seconds, scaled seconds) of
        the ops that passed.

        Scaled seconds are the op's duration times REFERENCE_S over the mean
        of the reference timings just before and just after it.
        """
        order = list(range(len(self.workload.pool)))
        self.order.shuffle(order)
        timed = []
        for i in order:
            duration = self.one(self.workload.pool[i], tracer)
            if duration is not None:
                speed = 0.5 * (self.reference[-2] + self.reference[-1]) / REFERENCE_S
                timed.append((i, duration, duration / speed))
        return timed

    def one(self, op, tracer) -> float | None:
        self.attempted += 1
        try:
            try:
                with tracer.op() if tracer is not None else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    output = self.workload.run(op)
                    duration = time.perf_counter() - t0
            finally:
                self.reference.append(reference_work())
            problems = self.workload.check(op, output)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            if self.failed <= 20:
                print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        return duration


def op_medians(timed) -> list[float]:
    """Each pool op's median scaled duration over the run."""
    by_op: dict[int, list[float]] = {}
    for i, _, scaled in timed:
        by_op.setdefault(i, []).append(scaled)
    return [statistics.median(v) for v in by_op.values()]


def ops_per_s(timed) -> float:
    """Pool size over the scaled time of one pass, each op at its median."""
    medians = op_medians(timed)
    return len(medians) / sum(medians)


def tail(durations: list[float]) -> dict:
    """Highest of p99.9/p99/p90/p50 with at least ten ops beyond it."""
    import numpy as np

    n = len(durations)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return {"p": p, "ms": float(np.percentile(durations, p)) * 1e3, "n": n}
    return {"p": None, "ms": None, "n": n}


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else s.parent
            fh.write(f"{i},{parent},{s.name},{s.start!r},{s.end!r}\n")


def end_to_end(args, runner, deadline) -> tuple[dict, list[tuple[int, float, float]]]:
    # Set-up probes run between passes, spread over the run, so that a slow
    # spell of the machine reaches only some of them.
    start = time.perf_counter()
    timed, setup_times = [], []
    while time.perf_counter() < deadline or len(setup_times) < SETUP_PROBES:
        due = start + (len(setup_times) + 0.5) * (deadline - start) / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and time.perf_counter() >= due:
            before = reference_work()
            probe = time_setup(args)
            speed = 0.5 * (before + reference_work()) / REFERENCE_S
            setup_times.append(probe / speed)
        if time.perf_counter() < deadline:
            timed += runner.one_pass()
    metrics = {
        "ops_per_s": (ops_per_s(timed), "1/s"),
        "op_ms.p50": (statistics.median(op_medians(timed)) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((runner.attempted - runner.failed) / runner.attempted, "fraction"),
    }
    return metrics, timed


def per_layer(args, tracing, setup_tracer, runner, deadline) -> tuple[dict, list[tuple[int, float, float]]]:
    # Untraced and traced passes alternate so that both see the same
    # machine conditions; their rates give the tracing overhead.
    tracer = tracing.Tracer()
    untraced, traced = [], []
    first_pass = None
    while time.perf_counter() < deadline:
        untraced += runner.one_pass()
        with tracing.patched(tracer):
            traced += runner.one_pass(tracer)
        first_pass = first_pass or len(tracer.spans)
    metrics = {k: (v, _unit(k)) for k, v in tracing.layer_metrics(tracer).items()}
    load = tracing.layer_metrics(setup_tracer)["materials.load_material_file.busy_s"]
    metrics["setup.materials.load_material_file.busy_s"] = (load, "s")
    metrics["tracing.ops_per_s"] = (ops_per_s(traced), "1/s")
    metrics["tracing.slowdown"] = (ops_per_s(untraced) / ops_per_s(traced), "ratio")
    # One pass shows every op; all passes would take megabytes per run.
    path = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.csv"
    write_spans(tracer.spans[:first_pass], path)
    return metrics, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "piezoband" / "__init__.py").is_file():
        print(f"error: no piezoband sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    import workloads

    make = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        make(args.seed, workdir)
        return 0
    if args.trace:
        import tracing

        setup_tracer = tracing.Tracer()
        with tracing.patched(setup_tracer), setup_tracer.op():
            workload = make(args.seed, workdir)
    else:
        workload = make(args.seed, workdir)

    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed)
        runner.one_pass()  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, timed = per_layer(args, tracing, setup_tracer, runner, deadline)
        else:
            metrics, timed = end_to_end(args, runner, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "ops": {"attempted": runner.attempted, "failed": runner.failed, "timed": len(timed),
                "pool": len(workload.pool)},
        "unscaled": {
            "ops_per_s": len(timed) / sum(d for _, d, _ in timed),
            "op_ms.p50": statistics.median(d for _, d, _ in timed) * 1e3,
            "op_ms.tail": tail([d for _, d, _ in timed]),
            "reference_ms.p50": statistics.median(runner.reference) * 1e3,
        },
    }
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    key = name.rsplit(".", 1)[1]
    if key.endswith("_s"):
        return "s"
    return {"ns_per_point": "ns", "bytes_written": "bytes", "complete_ratio": "ratio",
            "max_residual": "dimensionless"}.get(key, "count")


if __name__ == "__main__":
    sys.exit(main())
