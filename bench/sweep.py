"""Opt-in scaling sweep of the traced run; not a gated workload.

    python3 bench/sweep.py                          # n = 1e4, 1e5 and 1e6
    python3 bench/sweep.py --sizes 10000,100000     # skip the 1e6 run (about 4 GB peak)

For each size, a seeded noise-free ``make_random_modulated`` record is
written once, then two fresh children each run one traced operation
in-process: ``triellipse analyze`` through ``cli.main`` and the library
chain of ``library_large``.  Each prints its wall time, per-layer self
times and peak RSS.  The rows that the ROADMAP's baseline (2-core
VM, ``perf_counter`` in one process) also measured are printed
next to it with their drift.  Results go to
``.bench_work/results/SWEEP.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

import run

# (size, operation, metric, ROADMAP value): metric is "wall_s", "peak_rss_gb"
# or a per-layer name; "numerics_s" is the analyze_signal span
BASELINE = [
    (100_000, "analyze", "wall_s", 11.0),
    (100_000, "analyze", "cli.main_self_s", 7.6),
    (100_000, "analyze", "spectrum.tapers_s", 1.8),
    (100_000, "analyze", "cli.read_dataset_s", 0.65),
    (100_000, "analyze", "numerics_s", 0.6),
    (1_000_000, "pipeline", "numerics_s", 10.1),
    (1_000_000, "pipeline", "tapers_and_multitaper_s", 26.0),
    (1_000_000, "pipeline", "peak_rss_gb", 3.6),
]


def child(kind: str, n: int, work: Path) -> None:
    """Run one traced operation in this process and print its numbers."""
    sys.path.insert(0, str(run.SRC))
    from tracer import Tracer, op_layers
    from workloads import Op

    if kind == "analyze":
        argv = ["analyze", str(work / "record.csv"), "--out", str(work / "out-analyze")]
    else:
        argv = [str(work / "record.npy"), str(work / "out-pipeline")]
    op = Op(kind, kind, argv, work / f"out-{kind}", n, check=None)
    tracer = Tracer()
    res = run.run_in_process(op, tracer, 0)
    layers = op_layers(tracer.spans, tracer.fft_points, 0)
    numerics = [s.seconds for s in tracer.spans if s.name == "cli.analyze_signal"]
    layers["numerics_s"] = sum(numerics)
    layers["tapers_and_multitaper_s"] = (
        layers.get("spectrum.tapers_s", 0.0) + layers.get("spectrum.multitaper_s", 0.0))
    print(json.dumps({"wall_s": res.seconds, "error": res.error, "layers": layers}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="10000,100000,1000000")
    parser.add_argument("--child", nargs=3, metavar=("KIND", "N", "WORK"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child[0], int(args.child[1]), Path(args.child[2]))
        return 0

    sizes = [int(float(s)) for s in args.sizes.split(",")]
    rows, failed = [], 0
    with run.Launcher() as launcher:
        sys.path.insert(0, str(run.SRC))
        import numpy as np
        import triellipse
        from workloads import write_csv

        for n in sizes:
            work = run.WORK / f"sweep-{n}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            x = triellipse.make_random_modulated(n, 0).samples.real
            write_csv(work / "record.csv", x)
            np.save(work / "record.npy", x)
            del x
            for kind in ("analyze", "pipeline"):
                log = work / f"{kind}.log"
                argv = [sys.executable, str(Path(__file__)), "--child", kind, str(n), str(work)]
                reply = launcher.run(argv, log)
                rc, rss = reply["returncode"], reply["rss_mb"]
                lines = log.read_text().strip().splitlines()
                result = json.loads(lines[-1]) if rc == 0 and lines else {"error": f"exit {rc}"}
                failed += bool(result.get("error"))
                result.update(n=n, kind=kind, peak_rss_gb=rss / 1024.0)
                rows.append(result)
                print(f"n={n:>8d} {kind:9s} wall {result.get('wall_s', float('nan')):9.3f} s  "
                      f"peak {rss / 1024.0:6.2f} GB  {result.get('error') or ''}")
                layers = result.get("layers", {})
                for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
                    if name in run.SELF_TIMES:
                        print(f"{'':20s}{name:38s} {value:9.4f} s")
            shutil.rmtree(work, ignore_errors=True)

    drift = []
    for n, kind, metric, base in BASELINE:
        row = next((r for r in rows
                    if r["n"] == n and r["kind"] == kind and not r.get("error")), None)
        if row is None:
            continue
        value = row[metric] if metric in row else row["layers"].get(metric, 0.0)
        drift.append({"n": n, "op": kind, "metric": metric, "roadmap": base,
                      "measured": value, "drift": value / base - 1.0})
        print(f"drift n={n:>8d} {kind:9s} {metric:28s} roadmap {base:7.3f}  "
              f"measured {value:9.3f}  drift {100 * (value / base - 1.0):+6.1f}%")
    if drift:
        print(f"median |drift| {100 * statistics.median(abs(d['drift']) for d in drift):.1f}%")
    out = run.WORK / "results" / "SWEEP.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"provenance": run.provenance("sweep", 0, {"sizes": sizes}),
                               "rows": rows, "drift": drift}, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
