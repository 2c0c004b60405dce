"""One library_large operation: load a record, then time the analysis chain.

    python3 bench/libchain.py RECORD.npy OUT_DIR     (with PYTHONPATH=src)

Loads an (n, 3) ``.npy`` record and times ``analyze_signal`` ->
``slepian_tapers`` -> ``multitaper_joint_spectrum`` with the CLI's
default settings.  Imports and the load are outside the timed span.
Writes ``chain.json`` with the chain time and the values the benchmark
checks.  The traced run calls :func:`main` in-process; every library
function is looked up on its module at call time so the tracer's
wrappers are seen.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import triellipse
import triellipse.cli


def main(argv: list[str]) -> int:
    record, out = Path(argv[0]), Path(argv[1])
    x = triellipse.RealSignal3(np.load(record))
    t0 = time.perf_counter()
    res = triellipse.cli.analyze_signal(x)
    tapers = triellipse.slepian_tapers(x.n_samples, 2.0, 3)
    est = triellipse.multitaper_joint_spectrum(x, tapers, pad_factor=8)
    seconds = time.perf_counter() - t0
    gt, gs = res.global_time, res.global_spectral
    out.mkdir(parents=True, exist_ok=True)
    (out / "chain.json").write_text(json.dumps({
        "seconds": seconds,
        "n_samples": x.n_samples,
        "mean_freq_time": gt.mean_freq,
        "mean_freq_spectral": gs.mean_freq,
        "second_central_time": gt.second_central,
        "second_central_spectral": gs.second_central,
        "mean_freq_multitaper": est.moments.mean_freq,
        "normalization": float(np.trapezoid(est.values, est.freqs) / (2 * np.pi)),
        "concentrations": tapers.concentrations.tolist(),
        "excluded": res.excluded,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
