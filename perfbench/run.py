"""End-to-end and per-layer benchmark of the ``bmb`` command line.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 40 --trace 0

One run generates the workload's inputs from ``--seed``, times one set-up
(the workload's fit command with the shortest chain the CLI accepts), then
repeats whole rounds of ``fit`` (or ``fit-copula``), ``diagnose`` and
``evaluate`` for about ``--seconds`` seconds (at least two rounds), each
command a child process started from this one, one at a time, with BLAS
pinned to one thread.  It checks every output, and prints as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, and with ``--trace 1`` the
per-layer metrics, measured by running the same children under the span
tracer in ``child.py``.  The line before it is a JSON record of the machine
(CPU count, BLAS, thread settings) and of the run.  Outputs stay in
``perfbench/runs/<workload>/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads, here and in every child

import argparse  # noqa: E402
from collections import Counter  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from child import TRACED  # noqa: E402
from workloads import WORKLOADS, Workload, generate, kinds_of, monotone_copy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150.0

# Floors for the recovery checks, set from seeds 9001-9008, which no timed
# run uses; see README.md for the values those seeds gave.
FLOORS = {
    "fit-wide": {"fscore": 0.5, "zero_coverage": 0.95},
    "fit-deep": {"fscore": 0.6, "zero_coverage": 0.95},
    "copula-mixed": {"fscore": 0.5, "zero_coverage": 0.9},
}


class CheckFailed(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    maxrss_mb: float
    spans: Path | None


def run_child(bmb_args: list[str], log: Path, spans: Path | None) -> Child:
    """Run one bmb command to completion; a non-zero exit is a failure."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
           str(spans) if spans else "-", "--", *bmb_args]
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise CheckFailed(f"exit {proc.returncode} from bmb {' '.join(bmb_args)}"
                          f" (log in {log})")
    return Child(wall, usage.ru_maxrss / 1024.0, spans)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fit_args(w: Workload, seed: int, inputs: Path, out: Path, burn_in: int,
             samples: int, data: str = "data.csv") -> list[str]:
    args = [w.command, "--data", str(inputs / data), "--seed", str(seed),
            "--out-dir", str(out), *w.chain_flags(burn_in, samples)]
    if w.mixed:
        args += ["--kinds", str(inputs / "kinds.csv")]
    return args


def run_round(w: Workload, seed: int, inputs: Path, out: Path,
              trace: bool) -> dict:
    """One fit, diagnose and evaluate, each timed as a child process."""
    out.mkdir(parents=True)
    log = out / "log.txt"

    def spans(name: str) -> Path | None:
        return out / f"spans-{name}.json" if trace else None

    edges = out / "fit" / "edges.csv"
    fit = run_child(fit_args(w, seed, inputs, out / "fit", w.burn_in,
                             w.samples), log, spans("fit"))
    diag = run_child(["diagnose", "--data", str(edges),
                      "--out-dir", str(out / "diag")], log, spans("diag"))
    ev = run_child(["evaluate", "--data", str(edges),
                    "--truth", str(inputs / "truth.csv"),
                    "--level", repr(checks.LEVEL),
                    "--out-dir", str(out / "eval")], log, spans("eval"))
    written = (edges, out / "diag" / "diagnostics.csv",
               out / "eval" / "score.json")
    return {"fit": fit, "diag": diag, "eval": ev, "dir": out,
            "hash": {path.name: sha256(path) for path in written}}


def check_outputs(w: Workload, inputs: Path, rounds: list[dict]) -> dict:
    """Every check of the outputs; raises CheckFailed on the first miss."""
    first = rounds[0]
    for r in rounds[1:]:
        for name, digest in first["hash"].items():
            if r["hash"][name] != digest:
                raise CheckFailed(f"{r['dir'].name} wrote another {name} "
                                  f"than {first['dir'].name} at one seed")
    try:
        query, other, draws = checks.read_edges(first["dir"] / "fit" /
                                                "edges.csv")
        if draws.shape != (w.samples, w.p, w.q) or query != w.query:
            raise AssertionError(f"edges.csv holds draws of shape "
                                 f"{draws.shape}")
        blanket = checks.read_truth(inputs / "truth.csv", query, other)
        counts = checks.check_score(first["dir"] / "eval" / "score.json",
                                    draws, blanket)
        ess = checks.check_diagnostics(first["dir"] / "diag" /
                                       "diagnostics.csv", query, other, draws)
    except (AssertionError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"{type(exc).__name__}: {exc}") from exc
    f = checks.fscore(counts)
    cover = checks.zero_coverage(draws, blanket)
    floor = FLOORS[w.name]
    if f < floor["fscore"] or cover < floor["zero_coverage"]:
        raise CheckFailed(f"recovery below floor: F {f:.3f}, zero coverage "
                          f"{cover:.3f}, floors {floor}")
    return {"counts": counts, "fscore": f, "zero_coverage": cover,
            "ess_p10": float(np.percentile(ess, 10)),
            "ess_min": float(ess.min()), "ess_median": float(np.median(ess))}


def self_times(spans_file: Path) -> tuple[float, dict, dict]:
    """Per-layer self time, calls and per-call extras from one child."""
    data = json.loads(spans_file.read_text(encoding="utf-8"))
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, list] = {}
    for k, (layer, start, end, parent, extra) in enumerate(spans):
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[k]
        calls[layer] = calls.get(layer, 0) + 1
        if extra is not None:
            extras.setdefault(layer, []).append(extra)
    return data["import_s"], {"self_s": self_s, "calls": calls}, extras


def layer_metrics(rounds: list[dict], ess_min: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced rounds, medians of self times."""
    per_round = []
    for r in rounds:
        imports, self_s, calls, extras = [], {}, {}, {}
        for child in (r["fit"], r["diag"], r["eval"]):
            imp, agg, ext = self_times(child.spans)
            imports.append(imp)
            for layer, v in agg["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + v
            for layer, v in agg["calls"].items():
                calls[layer] = calls.get(layer, 0) + v
            for layer, v in ext.items():
                extras.setdefault(layer, []).extend(v)
        per_round.append((statistics.median(imports), self_s, calls, extras))
    if any(pr[2] != per_round[0][2] for pr in per_round):
        raise CheckFailed("traced call counts differ between rounds")
    _, _, calls, extras = per_round[0]

    def med(layer: str) -> float:
        return statistics.median(pr[1].get(layer, 0.0) for pr in per_round)

    m: dict[str, tuple[float, str]] = {
        "cli.import_s": (statistics.median(pr[0] for pr in per_round), "s"),
    }
    for mod, attr in TRACED:
        layer = f"{mod}.{attr}"
        m[f"{layer}.self_s"] = (med(layer), "s")
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")

    io_bytes = extras.get("io.write_edges_csv", [])
    m["io.edges_csv_mb"] = (sum(io_bytes) / 1e6, "MB")
    shapes = extras.get("sampler.structured_chol", [])
    gflop = sum((p * q) ** 3 / 3.0 + 2.0 * p * q ** 3 for p, q in shapes) / 1e9
    chol_s = med("sampler.structured_chol")
    m["sampler.structured_chol.gflop"] = (gflop, "Gflop_computed")
    m["sampler.structured_chol.gflops"] = (
        gflop / chol_s if chol_s > 0 else 0.0, "Gflop/s_computed")
    m["sampler.structured_chol.mb"] = (
        max((8.0 * (p * q) ** 2 / 1e6 for p, q in shapes), default=0.0),
        "MB_computed")
    mgig = extras.get("rng.sample_mgig", [])
    levels = [lv for lv, _ in mgig]
    m["rng.sample_mgig.levels"] = (
        float(np.mean(levels)) if levels else 0.0, "levels/draw")
    # The per-draw flag is the complement of the MH-correction flag that
    # sample_mgig returns, so the fallbacks are the draws not converged.
    m["rng.sample_mgig.fallbacks"] = (sum(1 - c for _, c in mgig), "count")
    m["rng.sample_mgig.converged_ratio"] = (
        float(np.mean([c for _, c in mgig])) if mgig else 0.0, "ratio")
    m["rng.sample_truncated_normal.cells"] = (
        sum(extras.get("rng.sample_truncated_normal", [])), "count")
    m["diagnostics.min_ess"] = (ess_min, "samples")
    m["trace.fit_s"] = (
        statistics.median(r["fit"].wall_s for r in rounds), "s")
    return m, {"depth_histogram": dict(sorted(Counter(levels).items()))}


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        name, version = "unknown", "unknown"
    return {"nproc": os.cpu_count(), "blas": name, "blas_version": version,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "python": sys.version.split()[0], "numpy": np.__version__}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bmb" / "cli.py").is_file():
        print(f"no bmb source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run_dir = HERE / "runs" / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    made = generate(w, args.seed, inputs)

    attempted = 0
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "inputs": made, **blas_info()}
    try:
        # An untimed warm-up child first, so that the timed set-up does not
        # pay for byte-compiling src/bmb or reading scipy from disk in a
        # fresh checkout.  On copula-mixed it is the rank-invariance fit:
        # continuous margins through exp(x/2) must leave edges.csv
        # unchanged byte for byte.
        if w.mixed:
            monotone_copy(inputs / "data.csv", inputs / "data_exp.csv",
                          kinds_of(w))
            warm_up = fit_args(w, args.seed, inputs, run_dir / "invariance",
                               0, 1, data="data_exp.csv")
        else:
            warm_up = fit_args(w, args.seed, inputs, run_dir / "warmup", 0, 1)
        attempted += 1
        run_child(warm_up, run_dir / "warmup.log", None)
        # Set-up: the shortest chain the CLI accepts, timed once, in a
        # fresh process.
        attempted += 1
        setup = run_child(fit_args(w, args.seed, inputs, run_dir / "setup", 0, 1),
                          run_dir / "setup.log", None)
        if w.mixed:
            if (sha256(run_dir / "setup" / "edges.csv")
                    != sha256(run_dir / "invariance" / "edges.csv")):
                raise CheckFailed("fit-copula output changed under a "
                                  "monotone map of the continuous columns")
        rounds = []
        start = time.perf_counter()
        while True:
            attempted += 3
            rounds.append(run_round(w, args.seed, inputs,
                                    run_dir / f"round{len(rounds)}", trace))
            spent = time.perf_counter() - start
            if len(rounds) >= 2 and spent * (1 + 1 / len(rounds)) > args.seconds:
                break
        found = check_outputs(w, inputs, rounds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1

    fit_s = statistics.median(r["fit"].wall_s for r in rounds)
    record.update(rounds=len(rounds), outputs=found, round_walls=[
        {name: round(r[name].wall_s, 4) for name in ("fit", "diag", "eval")}
        for r in rounds])
    if trace:
        metrics, extra = layer_metrics(rounds, found["ess_min"])
        record.update(extra)
    else:
        metrics = {
            "setup_s": (setup.wall_s, "s"),
            "fit_s": (fit_s, "s"),
            "ess_per_s": (found["ess_p10"] / fit_s, "1/s"),
            "diagnose_s": (statistics.median(r["diag"].wall_s
                                             for r in rounds), "s"),
            "evaluate_s": (statistics.median(r["eval"].wall_s
                                             for r in rounds), "s"),
            "fit_rss_mb": (statistics.median(r["fit"].maxrss_mb
                                             for r in rounds), "MB"),
        }
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record["result"] = result
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
