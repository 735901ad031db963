"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with the measured quantity before its
assertions run, so `pytest -v -rA` yields a compact scoreboard.  These are
deliberately heavier than the unit tests (minutes, not seconds).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bmb.linalg import PartitionedCov, partition_scatter
from bmb.copula import CopulaConfig, MixedDataTable, run_copula_chain
from bmb.rng import MgigParams, RngStream, sample_mgig, sample_wishart
from bmb.sampler import (
    ChainConfig,
    HyperParams,
    build_structured_precision,
    run_chain,
    sample_w11,
    sample_w12,
    structured_chol,
)
from bmb.synthetic import GraphSpec, gen_precision, score, simulate_data, threshold_blanket
import bmb.cli as cli
import bmb.sampler

from gir import consistency_z_scores
from helpers import (dense_factor, factor_logdet, ks_distance, make_spd,
                     quadrature_cdf, rel_err)
from w12_timing import THREAD_VARS


def _report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_structured_factor_matches_dense():
    gen = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        p = int(gen.integers(1, 4))
        q = int(gen.integers(2, 9))
        s22 = make_spd(gen, q)
        w11 = make_spd(gen, p)
        scales = gen.uniform(0.2, 3.0, (p, q))
        prec = build_structured_precision(s22)
        factor = structured_chol(prec, w11, scales)
        dense = np.kron(np.linalg.inv(w11), prec.k)
        dense[np.arange(p * q), np.arange(p * q)] += 1.0 / scales.reshape(-1)
        ell = dense_factor(factor)
        worst = max(worst, rel_err(ell @ ell.T, dense))
        worst = max(worst, abs(factor_logdet(factor) - np.linalg.slogdet(dense)[1])
                    / abs(np.linalg.slogdet(dense)[1]))
    _report("structured-factor", worst <= 1e-8,
            f"max rel err {worst:.3e} over 50 shapes (tol 1e-8)")


def _scalar_mgig_cdf(lam, a, b, hi):
    def logf(x):
        with np.errstate(divide="ignore"):
            return (-lam - 1.0) * np.log(x) - 0.5 * (a * x + b / x)

    return quadrature_cdf(logf, 1e-9, hi, m=400001)


def test_criterion_2_scalar_mgig_draws_match_quadrature():
    cases = [(-3.0, 2.0, 1.5, 60.0), (2.0, 1.0, 2.0, 80.0), (-1.0, 1.2, 0.8, 60.0)]
    worst = 0.0
    for lam, a, b, hi in cases:
        rng = RngStream(int(1000 + 10 * lam))
        params = MgigParams(lam=lam, a=np.array([[a]]), b=np.array([[b]]))
        draws = np.empty(100_000)
        for i in range(draws.size):
            m, _ = sample_mgig(rng, params)
            draws[i] = m[0, 0]
        d = ks_distance(draws, _scalar_mgig_cdf(lam, a, b, hi))
        worst = max(worst, d)

    # closure under inversion: 1/X for X ~ MGIG(lam, a, b) must match
    # direct draws from MGIG(-lam, b, a)
    lam, a, b = -2.5, 1.7, 0.9
    fwd = MgigParams(lam=lam, a=np.array([[a]]), b=np.array([[b]]))
    rev = MgigParams(lam=-lam, a=np.array([[b]]), b=np.array([[a]]))
    r1, r2 = RngStream(7), RngStream(8)
    inverted = np.sort([1.0 / sample_mgig(r1, fwd)[0][0, 0] for _ in range(30_000)])
    direct = np.sort([sample_mgig(r2, rev)[0][0, 0] for _ in range(30_000)])
    pooled = np.concatenate([inverted, direct])
    cdf1 = np.searchsorted(inverted, pooled, side="right") / inverted.size
    cdf2 = np.searchsorted(direct, pooled, side="right") / direct.size
    d2 = float(np.max(np.abs(cdf1 - cdf2)))
    _report("scalar-mgig", worst < 0.01 and d2 < 0.02,
            f"worst one-sample KS {worst:.4f} (tol 0.01), "
            f"inversion two-sample KS {d2:.4f} (tol 0.02)")


def test_criterion_3_conditional_moments():
    gen = np.random.default_rng(202)
    rng = RngStream(303)
    p, q, n_draws = 2, 5, 50_000
    s22 = make_spd(gen, q)
    w11 = make_spd(gen, p)
    scales = gen.uniform(0.3, 2.0, (p, q))
    s12 = gen.standard_normal((p, q))
    prec = build_structured_precision(s22)

    c = np.kron(np.linalg.inv(w11), prec.k)
    c[np.arange(p * q), np.arange(p * q)] += 1.0 / scales.reshape(-1)
    cov = np.linalg.inv(c)
    mean = -cov @ s12.reshape(-1)

    draws = np.empty((n_draws, p * q))
    for i in range(n_draws):
        draws[i] = sample_w12(rng, prec, w11, scales, s12).reshape(-1)
    se_mean = np.sqrt(np.diag(cov) / n_draws)
    z_mean = np.max(np.abs(draws.mean(axis=0) - mean) / se_mean)
    samp_cov = np.cov(draws.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n_draws)
    z_cov = np.max(np.abs(samp_cov - cov) / se_cov)

    # W11 conditional collapses to a Wishart when the cross block vanishes
    s11 = make_spd(gen, p)
    a = s11 + np.eye(p)
    n_obs = 6
    nu = n_obs + p + 1
    sigma = np.linalg.inv(a)
    w_draws = np.empty((30_000, p, p))
    for i in range(w_draws.shape[0]):
        w_draws[i], _ = sample_w11(rng, s11, prec, np.zeros((p, q)), n_obs)
    wish_se = np.sqrt(nu * (sigma ** 2 + np.outer(np.diag(sigma), np.diag(sigma)))
                      / w_draws.shape[0])
    z_w11 = np.max(np.abs(w_draws.mean(axis=0) - nu * sigma) / wish_se)

    ok = z_mean < 4.0 and z_cov < 4.0 and z_w11 < 4.0
    _report("conditional-moments", ok,
            f"max |z| mean {z_mean:.2f}, cov {z_cov:.2f}, "
            f"w11-collapse {z_w11:.2f} (tol 4.0)")


def test_criterion_4_prior_chain_consistency():
    z = consistency_z_scores(seed=314, q=2, gamma=1.0, n_obs=5,
                             reps=20_000, iters=20_000)
    worst = float(np.max(np.abs(z)))
    _report("prior-chain-consistency", worst < 4.0,
            f"z scores {np.round(z, 2).tolist()}, max |z| {worst:.2f} (tol 4.0)")


def test_criterion_5_block_decomposition_identities():
    gen = np.random.default_rng(404)
    worst_tr, worst_det = 0.0, 0.0
    for i in range(100):
        p = int(gen.integers(1, 5))
        q = int(gen.integers(2, 13))
        spec = GraphSpec(p=p, q=q, edge_density_target=0.1, seed=5000 + i)
        truth = gen_precision(spec)
        d = p + q
        s = sample_wishart(RngStream(9000 + i), d + 2.0, make_spd(gen, d) / d)

        w = truth.w_full.values
        w11, w12 = truth.w11, truth.true_blanket
        w21 = w12.T
        w22dot = truth.schur_complement()
        s11, s12, s22 = s[:p, :p], s[:p, p:], s[p:, p:]
        lhs = float(np.sum(w * s))
        rhs = (np.trace(w11 @ s11) + np.trace(w12 @ s12.T)
               + np.trace(w21 @ s12)
               + np.trace(w21 @ np.linalg.solve(w11, w12) @ s22)
               + np.trace(w22dot @ s22))
        worst_tr = max(worst_tr, abs(lhs - rhs) / abs(lhs))

        full_ld = np.linalg.slogdet(w)[1]
        split_ld = np.linalg.slogdet(w11)[1] + np.linalg.slogdet(w22dot)[1]
        worst_det = max(worst_det, abs(full_ld - split_ld) / abs(full_ld))
    ok = worst_tr <= 1e-10 and worst_det <= 1e-10
    _report("block-decomposition", ok,
            f"trace split rel err {worst_tr:.2e}, logdet split rel err "
            f"{worst_det:.2e} (tol 1e-10)")


def test_criterion_6_blanket_recovery_on_synthetic_graphs():
    scores = []
    for seed in range(10):
        spec = GraphSpec(p=10, q=90, seed=seed)
        truth = gen_precision(spec)
        data = simulate_data(truth, 1000, RngStream(seed))
        cov = partition_scatter(data, [f"v{i}" for i in range(10)], center=False)
        out = run_chain(cov, HyperParams(gamma=200.0), ChainConfig(seed=seed + 1))
        est = threshold_blanket(out.w12, 0.85)
        scores.append(score(est, truth).fscore)
    med = float(np.median(scores))
    _report("blanket-recovery", med >= 0.6,
            f"median F score {med:.3f} over 10 graphs (need >= 0.6), "
            f"all: {[round(s, 2) for s in scores]}")


def test_criterion_7_cross_block_update_scaling():
    # Timed in a child with BLAS pinned to one thread (see w12_timing.py):
    # multithreaded BLAS on a small shared machine times the scheduler.
    script = Path(__file__).with_name("w12_timing.py")
    src = str(Path(bmb.sampler.__file__).resolve().parents[1])
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"timing child exited {proc.returncode}:\n{proc.stderr}"
    out = json.loads(proc.stdout)
    assert Path(out["module"]).resolve() == Path(bmb.sampler.__file__).resolve(), out["module"]
    med = {int(q): t for q, t in out["median_s"].items()}
    r1 = med[256] / med[128]
    r2 = med[512] / med[256]
    ok = 4.0 <= r1 <= 16.0 and 4.0 <= r2 <= 16.0
    threads = ", ".join(f"{var}={val}" for var, val in out["threads"].items())
    _report("update-scaling", ok,
            f"per-draw ms {[round(med[q] * 1e3, 2) for q in (128, 256, 512)]}, "
            f"doubling ratios {r1:.2f}, {r2:.2f} (window [4, 16]); "
            f"timed under {threads}, cpu_count={out['cpu_count']}")


def test_criterion_8_rank_channel_recovery_and_invariance():
    spec = GraphSpec(p=3, q=15, edge_density_target=0.1, seed=21)
    truth = gen_precision(spec)
    data = simulate_data(truth, 500, RngStream(21))
    query = ["v0", "v1", "v2"]
    hyper = HyperParams(gamma=30.0)

    table = MixedDataTable(data.values, tuple(data.names))
    cfg = CopulaConfig(chain=ChainConfig(seed=77))
    out = run_copula_chain(table, query, hyper, cfg)
    mean_w12 = out.w12.mean(axis=0)

    # The rank channel infers the precision of the standardized latent
    # field, so the comparable truth is D W12 D with D the per-variable
    # marginal standard deviations.
    sd = np.sqrt(np.diag(np.linalg.inv(truth.w_full.values)))
    target = sd[:3, None] * truth.true_blanket * sd[None, 3:]
    corr = float(np.corrcoef(mean_w12.reshape(-1), target.reshape(-1))[0, 1])

    warped = data.values.copy()
    warped[4] = np.exp(warped[4])
    warped[9] = warped[9] ** 3 + 2.0 * warped[9]
    out2 = run_copula_chain(MixedDataTable(warped, tuple(data.names)),
                            query, hyper, CopulaConfig(chain=ChainConfig(seed=77)))
    invariant = bool(np.array_equal(out.w12, out2.w12))
    _report("rank-channel", corr >= 0.9 and invariant,
            f"posterior-mean corr with scale-matched truth {corr:.4f} "
            f"(need >= 0.9), monotone-transform invariance {invariant}")


def _snapshot(out_dir):
    files = {}
    for path in sorted(out_dir.iterdir()):
        files[path.name] = path.read_bytes()
    return files


def _same_modulo_wall_time(a, b):
    if a.keys() != b.keys():
        return False
    for name in a:
        if a[name] == b[name]:
            continue
        if name != "manifest.json":
            return False
        ja, jb = json.loads(a[name]), json.loads(b[name])
        ja.pop("wall_time"), jb.pop("wall_time")
        if ja != jb:
            return False
    return True


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    sim_args = ["simulate", "--p", "2", "--q", "8", "--n", "150", "--seed", "5",
                "--edge-density", "0.1", "--out-dir", str(sim)]
    fit = tmp_path / "fit"
    fit_args = ["fit", "--data", str(sim / "data.csv"), "--query", "v0,v1",
                "--gamma", "20", "--burn-in", "10", "--samples", "30",
                "--seed", "3", "--out-dir", str(fit)]
    cop = tmp_path / "cop"
    cop_args = ["fit-copula", "--data", str(sim / "data.csv"), "--query", "v0",
                "--gamma", "20", "--burn-in", "10", "--samples", "30",
                "--seed", "3", "--out-dir", str(cop)]
    diag = tmp_path / "diag"
    diag_args = ["diagnose", "--data", str(fit / "edges.csv"),
                 "--max-lag", "10", "--out-dir", str(diag)]
    ev = tmp_path / "eval"
    ev_args = ["evaluate", "--data", str(fit / "edges.csv"),
               "--truth", str(sim / "truth.csv"), "--out-dir", str(ev)]

    stable = []
    for out_dir, args in [(sim, sim_args), (fit, fit_args), (cop, cop_args),
                          (diag, diag_args), (ev, ev_args)]:
        assert cli.main(args) == 0
        first = _snapshot(out_dir)
        assert cli.main(args) == 0
        stable.append(_same_modulo_wall_time(first, _snapshot(out_dir)))
    _report("cli-determinism", all(stable),
            f"rerun stability per subcommand "
            f"{dict(zip(['simulate', 'fit', 'fit-copula', 'diagnose', 'evaluate'], stable))}")
