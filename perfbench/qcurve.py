"""Reference curve in q for the cross-block (W12) update; not a gated workload.

Usage (from the root of a source checkout):

    python3 perfbench/qcurve.py

At fixed p and n it times ``bmb.sampler.structured_chol`` and
``bmb.sampler.sample_w12`` per call for q = 64 .. 512, in this process with
BLAS pinned to one thread, and prints the median and minimum over the
repeats, the local exponent of time in q (the slope of log median time
against log q from the previous row; 3 would be cubic), and the computed
Gflop rate of the factor ((pq)^3/3 + 2pq^3 flop per call).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

P, N = 4, 150
QS = (64, 128, 256, 384, 512)
REPEATS = 5
SEED = 0


def timed(fn, repeats: int) -> list[float]:
    fn()  # warm-up
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "bmb" / "sampler.py").is_file():
        print(f"no bmb source tree at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bmb.rng import RngStream
    from bmb.sampler import build_structured_precision, sample_w12, structured_chol

    p, n = P, N
    print(f"p={p} n={n} repeats={REPEATS} nproc={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"{'q':>5} {'chol_ms':>9} {'chol_min':>9} {'slope':>6} {'Gflop/s':>8}"
          f" {'w12_ms':>9} {'w12_min':>9} {'slope':>6}")
    prev = None
    for q in QS:
        g = np.random.Generator(np.random.PCG64(SEED))
        x = g.standard_normal((p + q, n))
        s = x @ x.T
        prec = build_structured_precision(s[p:, p:])
        w11 = np.eye(p) + 0.1 * np.ones((p, p))
        scales = g.uniform(0.01, 1.0, size=(p, q))
        rng = RngStream(SEED)
        chol = timed(lambda: structured_chol(prec, w11, scales), REPEATS)
        draw = timed(lambda: sample_w12(rng, prec, w11, scales, s[:p, p:]),
                     REPEATS)
        c_med, d_med = statistics.median(chol), statistics.median(draw)
        flop = (p * q) ** 3 / 3.0 + 2.0 * p * q ** 3
        slopes = ("", "") if prev is None else tuple(
            f"{np.log(t / t_prev) / np.log(q / prev[0]):.2f}"
            for t, t_prev in ((c_med, prev[1]), (d_med, prev[2])))
        print(f"{q:>5} {c_med * 1e3:>9.2f} {min(chol) * 1e3:>9.2f} "
              f"{slopes[0]:>6} {flop / c_med / 1e9:>8.2f} {d_med * 1e3:>9.2f} "
              f"{min(draw) * 1e3:>9.2f} {slopes[1]:>6}")
        prev = (q, c_med, d_med)
    return 0


if __name__ == "__main__":
    sys.exit(main())
