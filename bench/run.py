"""harvestcomp benchmark: one workload per call, timed from the checkout's
own src/, every answer checked.

    python3 bench/run.py --workload grid|switch|bounds --seed N --seconds S --trace 0|1

--trace 0 times set-up in fresh interpreters, then runs passes of the
workload in a closed loop (one pass after the other, from this one process)
until S seconds have passed, and reports the end-to-end metrics as medians
over passes. --trace 1 runs untraced and traced passes and reports the
per-layer metrics (see per_layer). Every pass runs under the speed probe
(speed.py). Human-readable lines, one per metric with its unit, quartiles
and sample count, come first; the last line of standard output is the JSON
result. The full result, with run metadata, is also written to .bench_out/.
See README.md in this directory.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for stable timings; set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = workloads.ROOT / ".bench_out"
SETUP_PROBES = 5
END_TO_END = ("wall_norm_s", "setup_s", "peak_rss_mb")  # gated; the rest is reported


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def setup_times(workload) -> list[float]:
    """setup_s samples: each a fresh interpreter importing the package and
    building the workload's environments (see setup_probe.py)."""
    specs = json.dumps([[str(workloads.CONFIG_DIR / f"{name}.cfg"), overrides]
                        for name, overrides in workload.setup_specs])
    probe = workloads.HERE / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), str(workloads.SRC), specs],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _rss_kb(pid) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _children() -> list[str]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += (task / "children").read_text().split()
        except OSError:
            pass
    return pids


class RssSampler:
    """Peak of this process's resident memory plus its children's, sampled
    every 0.1 s while pool workers run."""

    def __init__(self):
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            total = _rss_kb("self") + sum(_rss_kb(p) for p in _children())
            self.peak_kb = max(self.peak_kb, total)
            if self._stop.wait(0.1):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def timed_pass(workload, tally, **kwargs) -> float:
    """One pass, checked; an exception fails every operation of the pass."""
    t0 = time.perf_counter()
    try:
        result = workload.run(**kwargs)
    except Exception as exc:  # a crash of the program under test is a result
        wall = time.perf_counter() - t0
        for _ in range(workload.ops_per_pass):
            tally.op(False, f"pass raised {type(exc).__name__}: {exc}")
        return wall
    wall = time.perf_counter() - t0
    workload.check(result, tally)
    return wall


@dataclass
class Pass:
    wall: float  # seconds
    busy: float  # seconds, less the speed probe's share
    norm: float  # seconds at nominal core speed
    probed: np.ndarray  # probe (seconds, count) per process
    ticks: list  # (start, end) of the probe's ticks in this process


def probed_pass(workload, tally, probe, jobs: int | None = None) -> Pass:
    """timed_pass under the speed probe. A pool's main process only waits,
    so then only the workers probe."""
    jobs = workload.jobs if jobs is None else jobs
    kwargs = {} if jobs == workload.jobs else {"jobs": jobs}
    with probe.armed(in_self=jobs == 1):
        before = probe.snapshot()
        wall = timed_pass(workload, tally, **kwargs)
        probed = probe.snapshot() - before
    return Pass(wall, speed.busy(wall, probed), speed.normalized(wall, probed), probed,
                probe.ticks)


def end_to_end(workload, seconds: float, tally, probe) -> tuple[dict, dict]:
    """Closed loop of passes for `seconds`; returns (JSON metrics, report)."""
    setup = setup_times(workload)
    pooled = workload.jobs > 1
    passes = []
    sampler = RssSampler() if pooled else contextlib.nullcontext()
    with sampler:
        start = time.perf_counter()
        while True:
            passes.append(probed_pass(workload, tally, probe))
            if time.perf_counter() - start >= seconds:
                break
    walls = [p.wall for p in passes]
    probed = sum(p.probed for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        peak_kb = max(peak_kb, sampler.peak_kb)
    probe_n = int(probed[:, 1].sum())
    report = {
        "setup_s": {"unit": "s", **quartiles(setup)},
        "wall_s": {"unit": "s", **quartiles(walls)},
        "wall_norm_s": {"unit": "s", **quartiles(p.norm for p in passes)},
        "probe_kernel_ms": {"unit": "ms", "n": probe_n,
                            "median": 1e3 * probed[:, 0].sum() / max(probe_n, 1)},
        "peak_rss_mb": {"unit": "MB", "median": peak_kb / 1024, "n": 1},
        "failed_frac": {"unit": "ratio", "median": tally.failed / tally.attempted,
                        "n": tally.attempted},
    }
    if workload.name == "grid":
        cells_per_s = [workload.ops_per_pass / w for w in walls]
        report["cells_per_s"] = {"unit": "1/s", **quartiles(cells_per_s)}
        report["unresolved_frac"] = {"unit": "ratio",
                                     "median": tally.stats["unresolved"] / tally.stats["cells"],
                                     "n": tally.stats["cells"]}
    if workload.name == "switch":
        report["switch_abs_err"] = {"unit": "1", **quartiles(tally.stats["switch_abs_err"])}
    metrics = {k: {"value": report[k]["median"], "unit": report[k]["unit"]}
               for k in END_TO_END}
    return metrics, report


def per_layer(workload, tally, probe) -> tuple[dict, dict]:
    """One untraced and one traced pass, both on one worker (so every span
    lands in this process), plus for the grid one untraced pass on its pool.
    Pass times are taken at nominal core speed so that their differences
    are not lost in the machine's drift; the probe's ticks are taken out of
    the spans they interrupt."""
    serial = probed_pass(workload, tally, probe, jobs=1)
    if workload.jobs > 1:
        # the serial pass ~ the sum of cell times the pool had jobs workers
        # for; from busy times, as normalizing would remove the slowdown the
        # workers cause each other
        efficiency = serial.busy / (workload.jobs * probed_pass(workload, tally, probe).busy)

    tracer = tracing.Tracer()
    tracer.install(sys.modules)
    try:
        workload.envs = workload.build()  # set-up again, so config/profiles spans exist
        traced = probed_pass(workload, tally, probe, jobs=1)
    finally:
        tracer.uninstall()

    layers = tracing.layer_metrics(tracer, pauses=traced.ticks)
    if workload.jobs == 1:
        # serial workloads: share of the traced pass spent inside cells
        efficiency = layers["sweep.cells_s"][0] / traced.busy
    layers["sweep.pool_efficiency"] = (efficiency, "ratio")
    layers["trace.wall_norm_s"] = (traced.norm, "s")
    layers["trace.untraced_wall_norm_s"] = (serial.norm, "s")
    layers["trace.overhead_norm_s"] = (traced.norm - serial.norm, "s")

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
    return metrics, {k: {"unit": u, "median": v, "n": 1} for k, (v, u) in layers.items()}


def _git(*args) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def metadata(args) -> dict:
    # the checkout a benchmark driver makes is no git repository
    in_git = (workloads.ROOT / ".git").exists()
    sha = _git("rev-parse", "HEAD") if in_git else None
    status = _git("status", "--porcelain") if in_git else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_1m_before": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    meta = metadata(args)
    try:
        pkg = workloads.load_package()
        refs = workloads.load_references()
    except (workloads.BenchError, ImportError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](pkg, args.seed, refs)
    tally = workloads.Tally()
    probe = speed.SpeedProbe()
    if args.trace:
        metrics, report = per_layer(workload, tally, probe)
    else:
        metrics, report = end_to_end(workload, args.seconds, tally, probe)
    meta["loadavg_1m_after"] = os.getloadavg()[0]
    meta["samples"] = {name: r["n"] for name, r in report.items()}
    if workload.name == "bounds":
        meta["betas"] = workload.betas

    for name, r in report.items():
        spread = f" q1={r['q1']:.6g} q3={r['q3']:.6g}" if "q1" in r else ""
        print(f"{args.workload:7s} {name:32s} {r['median']:.6g} {r['unit']}{spread} n={r['n']}")
    for msg in tally.messages:
        print(f"FAILED: {msg}")
    print("metadata " + json.dumps(meta))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "report": report, "metadata": meta}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
