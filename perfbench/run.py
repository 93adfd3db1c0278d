#!/usr/bin/env python3
"""Benchmark for qfeedback: one closed-loop client runs a workload's ops.

    python3 perfbench/run.py --workload ensemble --seed 973 --seconds 22 --trace 0

Run from the repository root.  Each op starts when the previous one returns
and its result is checked outside the timed interval.  With ``--trace 0`` the
run reports the end-to-end metrics, with each op's wall time scaled to a
reference host speed by the calibration kernel in ``calibrate.py``; with
``--trace 1`` it runs each op untraced and then traced, and reports per-op
layer metrics plus the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object.  Spans and a machine record go
to ``.perfbench_out/``.
"""

import os

# Pin BLAS to one thread before anything imports numpy; children inherit it.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 973  # the acceptance gates' ensemble seed
HELD_OUT_SEED = 4099  # for confirming a claim on a seed it was not tuned on
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported
SETUP_SPEED_S = 0.1  # host-speed sampling before each probe and after the last
WARMUP_S = 1.0
TAIL_SHARE = 0.10  # latency_tail_ms is the mean of this slowest share of ops
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def host_speed(seconds: float) -> float:
    """Mean calibration-kernel time over ``seconds`` of samples."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(calibrate.sample()[1])
    return statistics.fmean(samples)


def measure_setup(args) -> tuple:
    """(wall, scaled) set-up seconds of SETUP_PROBES fresh processes.

    A process that young is no place to time the calibration kernel: there
    its timings scatter by a factor of two while the set-up time holds
    steady.  So this process samples the host speed for SETUP_SPEED_S before
    each probe and after the last, and scales a probe by the mean of the
    two either side of it."""
    walls, speeds = [], [host_speed(SETUP_SPEED_S)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        walls.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        speeds.append(host_speed(SETUP_SPEED_S))
    scaled = [
        wall * calibrate.REFERENCE_S * 2.0 / (before + after)
        for wall, before, after in zip(walls, speeds, speeds[1:])
    ]
    return walls, scaled


class Loop:
    """Closed loop over a workload's ops; collects latencies and failures.

    With ``calibrated`` it samples the host speed between ops, at most every
    ``calibrate.EVERY_S``, and remembers when each op started.
    """

    def __init__(self, tracer=None, calibrated=False):
        self.tracer = tracer
        self.calibrated = calibrated
        self.latencies = []
        self.failures = []
        self.attempted = 0
        self.starts = []  # per latency: when its op started
        self.speed = []  # calibration samples: (when, seconds per burst)
        self._last_sample = -math.inf

    def sample_speed(self) -> None:
        self.speed.append(calibrate.sample())
        self._last_sample = time.perf_counter()

    def run(self, op):
        """Run and check one op; returns its latency, or None if it failed."""
        if self.calibrated and time.perf_counter() - self._last_sample >= calibrate.EVERY_S:
            self.sample_speed()
        self.attempted += 1
        tracer = self.tracer
        if tracer:
            tracer.op = self.attempted
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            if tracer:
                tracer.active = False
            self.failures.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        problems = op.check(result)
        if problems:
            self.failures.append(f"{op.label}: " + "; ".join(problems))
            return None
        self.latencies.append(elapsed)
        self.starts.append(start)
        return elapsed

    def run_for(self, work, seconds: float) -> None:
        """Whole rounds, cycling, until ``seconds`` have passed, so the op mix
        is the same whatever the machine speed."""
        rounds = work.rounds
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            for op in rounds[i % len(rounds)]:
                self.run(op)
            i += 1
        if self.calibrated:
            self.sample_speed()  # every op now has a sample on both sides

    def scaled(self) -> list:
        """Latencies at the reference host speed (see calibrate.py)."""
        return calibrate.scale(zip(self.starts, self.latencies), self.speed)


def warm_up(ops) -> None:
    start = time.perf_counter()
    for op in ops:
        op.call()
        if time.perf_counter() - start > WARMUP_S:
            break


def tail_mean(latencies) -> tuple:
    """Mean of the slowest TAIL_SHARE of the latencies (at least one):
    (value, how many)."""
    ordered = sorted(latencies)
    k = max(1, round(TAIL_SHARE * len(ordered)))
    return statistics.fmean(ordered[-k:]), k


def latency_metrics(lat) -> dict:
    tail_s, _ = tail_mean(lat)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
    }


def end_to_end(args, work, record) -> tuple:
    setup_wall, setup = measure_setup(args)
    record["setup_s_samples"] = setup
    record["setup_wall_s_samples"] = setup_wall
    loop = Loop(calibrated=True)
    warm_up(work.ops)
    loop.run_for(work, args.seconds)
    lat = loop.latencies
    if not lat:
        return loop, {}
    scaled = loop.scaled()
    record["latency_tail"] = {"share": TAIL_SHARE, "samples": len(lat),
                              "mean_of": tail_mean(scaled)[1]}
    record["busy_s"] = sum(lat)
    speed = [secs for _, secs in loop.speed]
    record["speed_samples"] = len(speed)
    record["speed_s"] = {"median": statistics.median(speed), "min": min(speed),
                         "max": max(speed)}
    record["wall"] = {k: v for k, (v, _) in latency_metrics(lat).items()}
    record["wall"]["setup_s"] = statistics.median(setup_wall)
    metrics = latency_metrics(scaled)
    metrics["setup_s"] = (statistics.median(setup), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return loop, metrics


# Span names each workload must record at least once, or the tracer missed a
# binding and the traced run is void.
MUST_TRACE = {
    "ensemble": ("linalg.eig_hermitian", "thermo.DensityMatrix.from_matrix",
                 "thermo.thermal_state", "measurement.apply", "feedback.plan_feedback",
                 "feedback.execute_plan", "feedback.run_cycle", "feedback.run_transform"),
    "ladder": ("linalg.eig_hermitian", "thermo.DensityMatrix.from_matrix",
               "thermo.thermal_state", "measurement.apply", "feedback.plan_feedback",
               "feedback.execute_plan", "feedback.run_cycle"),
    "controller": ("linalg.eig_hermitian", "thermo.DensityMatrix.from_matrix",
                   "thermo.thermal_state", "measurement.apply", "feedback.plan_feedback",
                   "controller.correlate", "controller.feedback_unitary",
                   "controller.apply_joint_unitary", "controller.decohere_controller",
                   "controller.finalize_branches", "controller.reset_controller",
                   "controller.run_controller_cycle"),
    "presets": ("linalg.eig_hermitian", "config.parse_config", "ledger.emit", "cli.main",
                "cli.cmd_run", "cli.cmd_sweep", "cli.cmd_validate", "cli.run_scenario",
                "feedback.run_cycle", "controller.run_controller_cycle"),
}


def traced(args, work, record) -> tuple:
    """Whole passes until ``seconds`` have passed, each op run once untraced
    and once traced, back to back and in alternating order, so that machine
    drift cancels out of the overhead.  The untraced runs go through the
    installed but inactive wrappers.  Layer metrics are per traced op, and
    whole passes make the counts repeat exactly from run to run."""
    from tracer import PER_LAYER_METRICS, Tracer

    ops = work.ops
    warm_up(ops)
    tracer = Tracer()
    plain, loop = Loop(), Loop(tracer)
    busy = [0.0, 0.0]  # untraced, traced; pairs where both succeeded
    passes = 0
    tracer.install()
    try:
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < args.seconds:
            for i, op in enumerate(ops):
                order = (plain, loop) if i % 2 == 0 else (loop, plain)
                times = {id(side): side.run(op) for side in order}
                if None not in times.values():
                    busy[0] += times[id(plain)]
                    busy[1] += times[id(loop)]
            passes += 1
    finally:
        tracer.uninstall()
    loop.failures = plain.failures + loop.failures
    loop.attempted += plain.attempted
    calls = tracer.calls_by_name()
    missing = [name for name in MUST_TRACE[work.name] if not calls.get(name)]
    if missing:
        raise RuntimeError(f"tracer recorded no calls of {', '.join(missing)}")
    n_ops = passes * len(ops)
    values = tracer.per_layer(n_ops)
    values["trace.overhead_frac"] = (busy[1] - busy[0]) / busy[0] if busy[0] else 0.0
    record.update(
        passes=passes,
        traced_ops=n_ops,
        calls_per_op={name: count / n_ops for name, count in calls.items()},
        eig_calls_by_caller={k: v / n_ops for k, v in tracer.eig_calls_by_caller().items()},
        eig_budget_check=tracer.eig_budget_check(),
        spans=len(tracer.spans),
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{work.name}-seed{args.seed}.json")
    return loop, {name: (values[name], unit) for name, unit in PER_LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfeedback" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'qfeedback'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg_before": os.getloadavg()}
    record["machine"] = machine_record()
    import workloads

    start = time.perf_counter()
    try:
        work = workloads.build(args.workload, args.seed, OUT / "tmp")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["inputs_s_in_process"] = time.perf_counter() - start
    try:
        loop, metrics = (traced if args.trace else end_to_end)(args, work, record)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record["loadavg_after"] = os.getloadavg()
    failed = len(loop.failures)
    record["failures"] = loop.failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    for failure in loop.failures[:20]:
        print(f"FAILED {failure}")
    if failed > 20:
        print(f"... and {failed - 20} more failures")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<10} {name:<34} {value:>14.6g} {unit}")
    print(f"{args.workload:<10} {'fail_ratio':<34} {failed / loop.attempted:>14.6g} "
          f"({failed}/{loop.attempted})")
    if "latency_tail" in record:
        t = record["latency_tail"]
        print(f"latency_tail_ms is the mean of the slowest {t['mean_of']} of "
              f"{t['samples']} ops")
    if "wall" in record:
        print("unscaled wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in record["wall"].items()
        ) + f"; calibration kernel median {record['speed_s']['median'] * 1e3:.4g} ms "
            f"over {record['speed_samples']} samples")
    if "eig_budget_check" in record:
        print(f"eig budget vs seed formulas: {json.dumps(record['eig_budget_check'])}")
    print(f"machine: {json.dumps(record['machine'])}; load "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    if not metrics:
        print("error: no op succeeded", file=sys.stderr)
        return 4
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
