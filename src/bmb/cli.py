"""Command-line front end: simulate, fit, fit-copula, diagnose, evaluate.

Every subcommand is a deterministic function of its flags, its input
files, and ``--seed``; repeated invocations produce byte-identical
outputs, with the single exception of the wall-time block inside
manifest.json.  Exit codes: 0 success, 2 bad flags, 3 unreadable or
ill-formed data, 4 sampler failure, 5 constant variable in copula input.

The sampler stack (``sampler``, ``copula``, ``linalg``, ``rng`` and the
scipy modules behind them) is imported inside the commands that run it,
so ``diagnose`` and ``evaluate`` start without loading scipy.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import logging
import os
import platform
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .diagnostics import (
    ChainSeries,
    autocorrelation,
    effective_sample_size,
    geweke_z,
)
from .errors import (
    BmbError,
    ConstantSeries,
    ConstantVariable,
    DataFormatError,
    DimensionMismatch,
    EmptyQuery,
    InsufficientSamples,
    InvalidParameter,
    QueryIsEverything,
    SeriesTooShort,
    UnknownVariable,
)
from .io import (
    csv_row,
    fmt_float,
    fmt_floats,
    read_data_csv,
    read_edges_csv,
    read_kinds_csv,
    read_truth_csv,
    write_data_csv,
    write_edges_csv,
    write_json,
    write_truth_csv,
)
from .synthetic import (
    GraphSpec,
    gen_precision,
    score,
    simulate_data,
    threshold_blanket,
)

if TYPE_CHECKING:
    from .copula import MixedDataTable
    from .rng import RngStream
    from .sampler import ChainOutput

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SAMPLER = 4
EXIT_CONSTANT = 5

# Kinds that --kinds may declare.  The copula fit reads every variable by
# its ranks alone, so a declaration is checked here and changes nothing else.
KINDS = ("continuous", "ordinal", "binary")

# Environment variables that set the BLAS thread count; outputs can differ
# in the last bits between thread counts, so the manifest records them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written next to every fit's outputs."""

    command: str
    config: dict
    seed: int
    versions: dict
    threads: dict
    wall_time: list
    mh_corrected: list

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})


def _versions() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bmb": __version__,
    }


def _threads() -> dict:
    record = {var: os.environ.get(var) for var in THREAD_VARS}
    record["cpu_count"] = os.cpu_count()
    return record


def _worker_cap() -> int:
    raw = os.environ.get("BMB_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        logger.warning("ignoring unparseable BMB_THREADS=%r; using 1", raw)
        return 1
    return max(1, cap)


def _config_echo(args: argparse.Namespace) -> dict:
    echo = {}
    for key, val in sorted(vars(args).items()):
        if key == "func":
            continue
        echo[key] = str(val) if isinstance(val, Path) else val
    return echo


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_query(raw: str) -> list[str]:
    names = [part.strip() for part in raw.split(",")]
    names = [n for n in names if n]
    if not names:
        raise InvalidParameter("--query must list at least one variable name")
    return names


def _check_level(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise InvalidParameter(f"--level must lie in (0, 1), got {level}")
    return level


def _chain_streams(seed: int, k: int) -> list[RngStream]:
    from .rng import RngStream

    if k == 1:
        return [RngStream(seed)]
    return RngStream(seed).split(k)


def _fit_chain_worker(payload) -> ChainOutput:
    from .sampler import run_chain

    cov, hyper, config, stream = payload
    return run_chain(cov, hyper=hyper, config=config, rng=stream)


def _copula_chain_worker(payload) -> ChainOutput:
    from .copula import run_copula_chain

    table, query, hyper, cfg, stream = payload
    return run_copula_chain(table, query, hyper=hyper, cfg=cfg, rng=stream)


def _run_chains(worker, payloads: list) -> list[ChainOutput]:
    workers = min(len(payloads), _worker_cap())
    if workers <= 1 or len(payloads) == 1:
        return [worker(p) for p in payloads]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, payloads))


def _summary_dict(out: ChainOutput, level: float) -> dict:
    alpha = (1.0 - level) / 2.0
    arr = out.w12
    lo, med, hi = np.quantile(arr, [alpha, 0.5, 1.0 - alpha], axis=0)
    mean = arr.mean(axis=0)
    edges = []
    for i, qname in enumerate(out.query_names):
        for j, oname in enumerate(out.other_names):
            edges.append({
                "query": qname,
                "other": oname,
                "mean": float(mean[i, j]),
                "median": float(med[i, j]),
                "lo": float(lo[i, j]),
                "hi": float(hi[i, j]),
                "included": bool(lo[i, j] > 0.0 or hi[i, j] < 0.0),
            })
    return {
        "level": level,
        "samples": out.n_samples,
        "query": list(out.query_names),
        "other": list(out.other_names),
        "edges": edges,
    }


def _write_fit_outputs(out_dir: Path, command: str, args: argparse.Namespace,
                       outs: list[ChainOutput], level: float) -> None:
    many = len(outs) > 1
    for idx, out in enumerate(outs):
        suffix = f"_c{idx}" if many else ""
        write_edges_csv(out_dir / f"edges{suffix}.csv",
                        out.query_names, out.other_names, out.w12)
        write_json(out_dir / f"summary{suffix}.json", _summary_dict(out, level))
    manifest = RunManifest(
        command=command,
        config=_config_echo(args),
        seed=args.seed,
        versions=_versions(),
        threads=_threads(),
        wall_time=[out.timings for out in outs],
        mh_corrected=[out.mh_corrected for out in outs],
    )
    write_json(out_dir / "manifest.json", manifest.to_dict())


def cmd_simulate(args: argparse.Namespace) -> int:
    from .rng import RngStream

    spec = GraphSpec(
        p=args.p, q=args.q,
        beta_a=args.beta_a, beta_b=args.beta_b,
        edge_density_target=args.edge_density,
        weight_lo=args.weight_lo, weight_hi=args.weight_hi,
        seed=args.seed,
    )
    rng = RngStream(args.seed)
    truth = gen_precision(spec, rng)
    data = simulate_data(truth, args.n, rng)
    out_dir = _out_dir(args)
    query_names = data.names[:spec.p]
    other_names = data.names[spec.p:]
    write_data_csv(out_dir / "data.csv", data)
    write_truth_csv(out_dir / "truth.csv", query_names, other_names,
                    truth.true_blanket)
    write_json(out_dir / "meta.json", {
        "command": "simulate",
        "config": _config_echo(args),
        "seed": args.seed,
        "query": query_names,
        "other": other_names,
        "n_true_edges": int(np.count_nonzero(truth.true_blanket)),
        "versions": _versions(),
    })
    logger.info("wrote %s rows x %s variables to %s",
                args.n, spec.dim, out_dir / "data.csv")
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    from .linalg import partition_scatter
    from .sampler import ChainConfig, HyperParams

    level = _check_level(args.level)
    query = _parse_query(args.query)
    data = read_data_csv(args.data)
    if not np.all(np.isfinite(data.values)):
        raise DataFormatError(
            f"{args.data}: missing or non-finite cells; "
            "plain fit needs complete data (use fit-copula for NA)"
        )
    cov = partition_scatter(data, query, center=args.center)
    hyper = HyperParams(gamma=args.gamma)
    config = ChainConfig(
        burn_in=args.burn_in, samples=args.samples, thin=args.thin,
        seed=args.seed, mgig_tol=args.mgig_tol,
        mgig_max_iter=args.mgig_max_iter,
    )
    streams = _chain_streams(args.seed, args.chains)
    payloads = [(cov, hyper, config, s) for s in streams]
    outs = _run_chains(_fit_chain_worker, payloads)
    _write_fit_outputs(_out_dir(args), "fit", args, outs, level)
    return EXIT_OK


def _table_from_csv(args: argparse.Namespace) -> MixedDataTable:
    from .copula import MixedDataTable

    data = read_data_csv(args.data)
    if args.kinds is not None:
        for name, kind in read_kinds_csv(args.kinds).items():
            if name not in data.names:
                raise DataFormatError(
                    f"{args.kinds}: kind declared for unknown variable {name!r}"
                )
            if kind not in KINDS:
                raise DataFormatError(
                    f"{args.kinds}: invalid kind {kind!r} for {name!r}; "
                    f"expected one of {', '.join(KINDS)}"
                )
            if kind == "binary":
                row = data.values[data.names.index(name)]
                levels = np.unique(row[~np.isnan(row)]).size
                if levels > 2:
                    raise DataFormatError(
                        f"{args.kinds}: {name!r} is declared binary but has "
                        f"{levels} distinct observed values"
                    )
    return MixedDataTable(values=data.values, names=tuple(data.names))


def cmd_fit_copula(args: argparse.Namespace) -> int:
    from .copula import CopulaConfig
    from .sampler import ChainConfig, HyperParams

    level = _check_level(args.level)
    query = _parse_query(args.query)
    table = _table_from_csv(args)
    hyper = HyperParams(gamma=args.gamma)
    cfg = CopulaConfig(
        chain=ChainConfig(
            burn_in=args.burn_in, samples=args.samples, thin=args.thin,
            seed=args.seed, mgig_tol=args.mgig_tol,
            mgig_max_iter=args.mgig_max_iter,
        ),
        inner_sweeps_per_outer=args.inner_sweeps,
        iw_prior_df=args.prior_df,
    )
    streams = _chain_streams(args.seed, args.chains)
    payloads = [(table, query, hyper, cfg, s) for s in streams]
    outs = _run_chains(_copula_chain_worker, payloads)
    _write_fit_outputs(_out_dir(args), "fit-copula", args, outs, level)
    return EXIT_OK


def _parse_edge_selection(raw: str, query_names: list[str],
                          other_names: list[str]) -> list[tuple[int, int]]:
    if raw == "none":
        return []
    if raw == "all":
        return [(i, j) for i in range(len(query_names))
                for j in range(len(other_names))]
    qpos = {n: i for i, n in enumerate(query_names)}
    opos = {n: j for j, n in enumerate(other_names)}
    pairs = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        qname, sep, oname = part.partition(":")
        if not sep or qname not in qpos or oname not in opos:
            raise InvalidParameter(
                f"--edges entry {part!r} is not a known 'query:other' pair"
            )
        pairs.append((qpos[qname], opos[oname]))
    if not pairs:
        raise InvalidParameter("--edges selected nothing; use 'none' explicitly")
    return pairs


def cmd_diagnose(args: argparse.Namespace) -> int:
    if args.max_lag < 1:
        raise InvalidParameter("--max-lag must be >= 1")
    query_names, other_names, w12 = read_edges_csv(args.data)
    m = w12.shape[0]
    if m < 2:
        raise DataFormatError(
            f"{args.data}: need at least 2 samples to diagnose, got {m}"
        )
    eff_lag = min(args.max_lag, m - 1)
    out_dir = _out_dir(args)
    short = 0
    with open(out_dir / "diagnostics.csv", "w", encoding="utf-8",
              newline="") as fh:
        fh.write(csv_row(["query", "other", "ess", "geweke_z"]
                         + [f"acf_lag{k}" for k in range(1, eff_lag + 1)]))
        for i, qname in enumerate(query_names):
            for j, oname in enumerate(other_names):
                series = ChainSeries(w12[:, i, j], label=f"{qname}:{oname}")
                try:
                    acf = fmt_floats(autocorrelation(series, eff_lag)[1:])
                except ConstantSeries:
                    acf = ["NA"] * eff_lag
                try:
                    ess = fmt_float(effective_sample_size(series))
                except (SeriesTooShort, ConstantSeries):
                    ess = "NA"
                try:
                    gz = fmt_float(geweke_z(series))
                except SeriesTooShort:
                    gz = "NA"
                    short += 1
                except ConstantSeries:
                    gz = "NA"
                fh.write(f"{csv_row([qname, oname])[:-1]},"
                         f"{','.join([ess, gz, *acf])}\n")
    if short:
        # geweke_z's first window is a tenth of the draws and needs 10.
        logger.warning("geweke_z is NA for %d of %d edges: it needs at least "
                       "100 kept draws, got %d", short,
                       len(query_names) * len(other_names), m)

    selected = _parse_edge_selection(args.edges, query_names, other_names)
    with open(out_dir / "traces.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_row(["sample"] + [f"{query_names[i]}:{other_names[j]}"
                                       for i, j in selected]))
        if selected:
            rows, cols = zip(*selected)
            traces = w12[:, list(rows), list(cols)]
            for s in range(m):
                fh.write(f"{s},{','.join(fmt_floats(traces[s]))}\n")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    level = _check_level(args.level)
    query_e, other_e, w12 = read_edges_csv(args.data)
    query_t, other_t, blanket = read_truth_csv(args.truth)
    if set(query_e) != set(query_t) or set(other_e) != set(other_t):
        raise DataFormatError(
            "edges.csv and truth.csv describe different variable sets"
        )
    qmap = [query_e.index(n) for n in query_t]
    omap = [other_e.index(n) for n in other_t]
    aligned = w12[:, qmap][:, :, omap]
    estimate = threshold_blanket(aligned, level=level)
    report = score(estimate, blanket)
    write_json(_out_dir(args) / "score.json", {
        "command": "evaluate",
        "level": level,
        "samples": int(w12.shape[0]),
        "source": estimate.source,
        **dataclasses.asdict(report),
    })
    return EXIT_OK


def _add_common_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", type=Path, default=Path("."),
                   help="directory for output files (created if missing)")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=Path, required=True,
                   help="input data.csv (rows = observations)")
    p.add_argument("--query", required=True,
                   help="comma-separated query variable names")
    p.add_argument("--gamma", "--lambda", dest="gamma", type=float,
                   default=200.0,
                   help="sparsity hyperparameter (alias --lambda)")
    p.add_argument("--burn-in", type=int, default=300)
    p.add_argument("--samples", type=int, default=700)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.85,
                   help="credible level for summary inclusion flags")
    p.add_argument("--mgig-tol", type=float, default=1e-9)
    p.add_argument("--mgig-max-iter", type=int, default=100)
    p.add_argument("--chains", type=int, default=1,
                   help="independent chains on split RNG streams; "
                        "BMB_THREADS caps parallel workers")
    _add_common_out(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmb",
        description="Posterior inference for the Markov blanket of query "
                    "variables in a Gaussian graphical model.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="draw a sparse precision matrix and a dataset")
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--q", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--edge-density", type=float,
                       default=GraphSpec.__dataclass_fields__[
                           "edge_density_target"].default)
    p_sim.add_argument("--beta-a", type=float, default=0.5)
    p_sim.add_argument("--beta-b", type=float, default=5.0)
    p_sim.add_argument("--weight-lo", type=float, default=0.3)
    p_sim.add_argument("--weight-hi", type=float, default=1.0)
    _add_common_out(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run the Gibbs chain on complete data")
    _add_chain_flags(p_fit)
    p_fit.add_argument("--center", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="subtract variable means (costs one observation)")
    p_fit.set_defaults(func=cmd_fit)

    p_cop = sub.add_parser("fit-copula",
                           help="run the chain on mixed/ordinal/missing data "
                                "through the rank copula")
    _add_chain_flags(p_cop)
    p_cop.add_argument("--kinds", type=Path, default=None,
                       help="CSV (name,kind) declaring per-variable kinds "
                            "(continuous, ordinal or binary); checked, but "
                            "the fit reads every variable by its ranks")
    p_cop.add_argument("--inner-sweeps", type=int, default=1,
                       help="blanket sweeps per latent refresh")
    p_cop.add_argument("--prior-df", type=float, default=None,
                       help="inverse-Wishart prior df (default: rank + 2)")
    p_cop.set_defaults(func=cmd_fit_copula)

    p_diag = sub.add_parser("diagnose",
                            help="per-edge mixing diagnostics from edges.csv")
    p_diag.add_argument("--data", type=Path, required=True,
                        help="edges.csv produced by fit or fit-copula")
    p_diag.add_argument("--max-lag", type=int, default=50)
    p_diag.add_argument("--edges", default="all",
                        help="'all', 'none', or comma-separated query:other "
                             "pairs to dump into traces.csv")
    _add_common_out(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_eval = sub.add_parser("evaluate",
                            help="score thresholded edges against truth.csv")
    p_eval.add_argument("--data", type=Path, required=True,
                        help="edges.csv produced by fit or fit-copula")
    p_eval.add_argument("--truth", type=Path, required=True)
    p_eval.add_argument("--level", type=float, default=0.85)
    _add_common_out(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConstantVariable as exc:
        logger.error("constant variable: %s", exc)
        return EXIT_CONSTANT
    except (DataFormatError, InsufficientSamples, DimensionMismatch) as exc:
        logger.error("bad input data: %s", exc)
        return EXIT_DATA
    except (InvalidParameter, UnknownVariable, EmptyQuery,
            QueryIsEverything) as exc:
        logger.error("bad flags: %s", exc)
        return EXIT_USAGE
    except (BmbError, np.linalg.LinAlgError, FloatingPointError) as exc:
        logger.error("sampler failure: %s", exc)
        return EXIT_SAMPLER
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
