"""Benchmark of the triellipse CLI and library; see bench/README.md.

    python3 bench/run.py --workload analyze_large --seed 1 --seconds 17 --trace 0
    python3 bench/run.py --workload all                  # every end-to-end metric
    python3 bench/run.py --smoke                        # tiny sizes, all workloads

Run from anywhere inside a checkout; the program is taken from its
``src/``.  A timed run (``--trace 0``) drives one closed-loop client: one
child process per operation, no think time, whole units until
``--seconds`` have passed.  A traced run (``--trace 1``) runs the same
units in this process, first untraced and then traced, and reports
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with provenance goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_ROUNDS = 5
IMPORT_ROUNDS = 3
OP_TIMEOUT_S = 150.0
SPEC_FILE = ROOT / "BENCHMARK.json"

# the self times that, with trace.unaccounted_s, add up to an operation's wall time
SELF_TIMES = [
    "cli.read_dataset_s", "cli.main_self_s", "cli.analyze_signal_self_s",
    "analytic.transform_s", "analytic.differentiate_s", "ellipse.extract_s",
    "ellipse.rates_s", "moments.instantaneous_self_s", "moments.bandwidth_self_s",
    "moments.global_time_s", "moments.global_spectral_s", "spectrum.eigensolve_s",
    "spectrum.concentration_self_s", "spectrum.multitaper_s", "synth.reference_s",
]


@dataclass
class OpResult:
    label: str
    kind: str
    samples: int
    seconds: float = 0.0
    cpu_s: float | None = None     # child user + system time (timed runs)
    rss_mb: float = 0.0
    returncode: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Starts timed children through bench/launcher.py, which explains why."""

    def __enter__(self):
        # its own process group, so an interrupted run can stop it with its child
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True)
        return self

    def __exit__(self, exc_type, *exc):
        self.proc.stdin.close()
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def run(self, argv: list[str], log: Path) -> dict:
        """Run a child to exit; return its wall and CPU seconds, exit code and peak RSS."""
        request = {"argv": argv, "log": str(log), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return json.loads(reply)


def run_child(op, launcher: Launcher) -> OpResult:
    op.out.mkdir(parents=True, exist_ok=True)
    if op.kind == "pipeline":
        argv = [sys.executable, str(BENCH / "libchain.py"), *op.argv]
    else:
        argv = [sys.executable, "-m", "triellipse.cli", *op.argv]
    log = op.out.parent / f"{op.out.name}.log"
    reply = launcher.run(argv, log)
    res = OpResult(op.label, op.kind, op.samples, seconds=reply["seconds"],
                   cpu_s=reply["cpu_s"], rss_mb=reply["rss_mb"], returncode=reply["returncode"])
    if res.returncode != 0:
        res.error = f"exit {res.returncode}: {log.read_text(errors='replace')[-400:]}"
    elif op.kind == "pipeline":
        res.seconds = json.loads((op.out / "chain.json").read_text())["seconds"]
    return res


def run_in_process(op, tracer=None, op_id: int = -1) -> OpResult:
    import libchain
    import triellipse.cli

    op.out.mkdir(parents=True, exist_ok=True)
    res = OpResult(op.label, op.kind, op.samples)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        ctx = tracer.installed(op_id) if tracer else contextlib.nullcontext()
        try:
            with ctx:
                t0 = time.perf_counter()
                try:
                    if op.kind == "pipeline":
                        res.returncode = libchain.main(op.argv)
                    else:
                        res.returncode = triellipse.cli.main(op.argv)
                finally:
                    res.seconds = time.perf_counter() - t0
        except SystemExit as exc:
            res.returncode = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            res.returncode, res.error = 1, traceback.format_exc(limit=3)
    if res.returncode != 0 and res.error is None:
        res.error = f"exit {res.returncode}: {sink.getvalue()[-400:]}"
    return res


def check_all(ops, results: list[OpResult]) -> None:
    """Check each operation's outputs; repeats of one input must be byte-identical."""
    from workloads import CheckFailed

    digests: dict[str, dict[str, str]] = {}
    for op, res in zip(ops, results):
        if res.error is None:
            try:
                op.check(op)
                if op.kind != "pipeline":
                    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(op.out.iterdir())}
                    first = digests.setdefault(op.label, files)
                    if files != first:
                        raise CheckFailed("outputs differ from an earlier run of the same input")
            except (CheckFailed, OSError, KeyError, ValueError) as exc:
                res.error = f"{type(exc).__name__}: {exc}"
        if res.error:
            print(f"FAILED {res.label}: {res.error}", file=sys.stderr)


def run_setup(wl) -> list[float]:
    times = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    return times


def timed(wl, seconds: float, launcher: Launcher) -> tuple[dict, list[OpResult], dict]:
    setup = run_setup(wl)
    ops, results = [], []
    t0 = time.perf_counter()
    while True:
        for op in wl.unit():
            ops.append(op)
            results.append(run_child(op, launcher))
        if time.perf_counter() - t0 >= seconds:
            break
    check_all(ops, results)
    times = [r.seconds for r in results]
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(times),
        "samples_per_s": sum(r.samples for r in results) / sum(times),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }
    detail = {"setup_rounds_s": setup}
    for kind in sorted({r.kind for r in results}):
        mine = [r.seconds for r in results if r.kind == kind]
        detail[f"{kind}_s_p50"] = {"value": statistics.median(mine), "ops": len(mine)}
    for label in sorted({r.label for r in results}):
        mine = [r for r in results if r.label == label]
        detail[label] = {"s_p50": statistics.median(r.seconds for r in mine),
                         "child_cpu_s_p50": statistics.median(r.cpu_s for r in mine),
                         "peak_rss_mb": max(r.rss_mb for r in mine), "ops": len(mine)}
    return metrics, results, detail


def fresh_import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import triellipse.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(IMPORT_ROUNDS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        values.append(float(out.stdout))
    return statistics.median(values)


def traced(wl, seconds: float) -> tuple[dict, list[OpResult], dict]:
    from tracer import Tracer, covered_seconds, op_layers

    run_setup(wl)
    tracer = Tracer()
    ops, results, plain_s, traced_s, accounting = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        for op in wl.unit():
            ops.append(op)
            results.append(run_in_process(op))
            plain_s.append(results[-1].seconds)
        for op in wl.unit():
            op_id = len(ops)
            ops.append(op)
            res = run_in_process(op, tracer, op_id)
            res.layers = op_layers(tracer.spans, tracer.fft_points, op_id)
            remainder = res.seconds - covered_seconds(tracer.spans, op_id)
            res.layers["trace.unaccounted_s"] = remainder
            if "cli.read_dataset_s" in res.layers and op.reads is not None:
                res.layers["cli.input_mb"] = op.reads.stat().st_size / 1e6
                res.layers["cli.read_rows_per_s"] = op.samples / res.layers["cli.read_dataset_s"]
            if "cli.main_self_s" in res.layers:
                written = sum(p.stat().st_size for p in op.out.iterdir()) / 1e6
                res.layers["cli.output_mb"] = written
                res.layers["cli.write_mb_per_s"] = written / res.layers["cli.main_self_s"]
            results.append(res)
            traced_s.append(res.seconds)
            accounting.append({
                "op": op_id, "label": op.label, "wall_s": res.seconds,
                "self_s": {k: res.layers[k] for k in SELF_TIMES if k in res.layers},
                "unaccounted_s": remainder,
            })
        if time.perf_counter() - t0 >= seconds:
            break
    check_all(ops, results)

    metrics = {}
    for name in units("per_layer"):
        values = [r.layers[name] for r in results if name in r.layers]
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["cli.import_s"] = fresh_import_seconds()
    metrics["trace.overhead_ratio"] = sum(traced_s) / sum(plain_s)
    detail = {
        "untraced_in_process_s": plain_s, "traced_s": traced_s,
        "accounting": accounting,
        "spans": [vars(s) for s in tracer.spans],
        "fft_points": [[op, mod, n] for (op, mod), n in tracer.fft_points.items()],
    }
    return metrics, results, detail


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC_FILE.read_text())[kind]}


def provenance(workload: str, seed: int, inputs: dict) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "triellipse").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes,
                 launcher: Launcher) -> dict:
    from workloads import WORKLOADS

    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[name](work, seed, sizes)
    try:
        if trace:
            metrics, results, detail = traced(wl, seconds)
        else:
            metrics, results, detail = timed(wl, seconds, launcher)
        record = {
            "provenance": provenance(name, seed, wl.inputs()),
            "metrics": metrics,
            "units": units("per_layer" if trace else "end_to_end"),
            "ops": [{k: v for k, v in vars(r).items() if k != "layers"} for r in results],
            "detail": detail,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    failed = sum(r.error is not None for r in results)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": record["units"][k]} for k, v in metrics.items()},
        "record": record,
        "path": path,
    }


def print_report(name: str, out: dict) -> None:
    print(f"== {name}: {out['attempted']} ops, {out['failed']} failed  ({out['path']})")
    for key, m in out["metrics"].items():
        print(f"{name:14s} {key:40s} {m['value']:>16.6g} {m['unit']}")
    detail = out["record"]["detail"]
    if "accounting" in detail:
        total = {}
        for row in detail["accounting"]:
            for k, v in row["self_s"].items():
                total[k] = total.get(k, 0.0) + v
        wall = sum(row["wall_s"] for row in detail["accounting"])
        rest = sum(row["unaccounted_s"] for row in detail["accounting"])
        print(f"{name:14s} traced wall {wall:.4f} s = self times below + unaccounted {rest:.4f} s")
        for k, v in sorted(total.items(), key=lambda kv: -kv[1]):
            print(f"{name:14s}   {k:38s} {v:12.4f} s  {100 * v / wall:5.1f}%")
    else:
        for key, value in detail.items():
            if key.endswith("_s_p50"):
                print(f"{name:14s} {key:40s} {value['value']:>16.6g} s  ({value['ops']} ops)")


def main(argv=None) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload; default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one unit per workload, timed and traced")
    args = parser.parse_args(argv)

    if not (SRC / "triellipse" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'triellipse'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    with Launcher() as launcher:
        return measure(args, launcher)


def measure(args, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import FULL, SMOKE, WORKLOADS

    if args.smoke:
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                out = run_workload(name, args.seed, 0.0, trace, SMOKE, launcher)
                print_report(name, out)
                ok &= out["correct"]
        print("smoke", "passed" if ok else "FAILED")
        return 0 if ok else 1

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = {}
    for name in names:
        outs[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), FULL,
                                  launcher)
        print_report(name, outs[name])
    last = {k: outs[names[-1]][k] for k in ("correct", "attempted", "failed", "metrics")}
    if len(names) > 1:
        last = {n: {k: o[k] for k in ("correct", "attempted", "failed", "metrics")}
                for n, o in outs.items()}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
