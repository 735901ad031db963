import importlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import bmb
import bmb.cli as cli
import bmb.sampler
from bmb.errors import NotPositiveDefinite
from bmb.io import (read_edges_csv, read_json, read_truth_csv,
                    write_edges_csv, write_truth_csv)


def _run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    rc = _run("simulate", "--p", "2", "--q", "6", "--n", "120",
              "--seed", "3", "--edge-density", "0.15",
              "--out-dir", str(out))
    assert rc == 0
    return out


def test_simulate_outputs(sim_dir):
    data = (sim_dir / "data.csv").read_text().splitlines()
    assert data[0] == ",".join(f"v{i}" for i in range(8))
    assert len(data) == 121
    qn, on, blanket = read_truth_csv(sim_dir / "truth.csv")
    assert qn == ["v0", "v1"] and len(on) == 6
    meta = read_json(sim_dir / "meta.json")
    assert meta["n_true_edges"] == int(np.count_nonzero(blanket))
    assert meta["config"]["p"] == 2


def test_fit_pipeline_and_edge_row_count(sim_dir, tmp_path):
    fit = tmp_path / "fit"
    rc = _run("fit", "--data", str(sim_dir / "data.csv"),
              "--query", "v0,v1", "--gamma", "10",
              "--burn-in", "0", "--samples", "1",
              "--seed", "1", "--out-dir", str(fit))
    assert rc == 0
    rows = (fit / "edges.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 6  # header + p*q
    summary = read_json(fit / "summary.json")
    assert len(summary["edges"]) == 12
    for e in summary["edges"]:
        assert e["lo"] <= e["median"] <= e["hi"]
    manifest = read_json(fit / "manifest.json")
    assert manifest["command"] == "fit"
    assert manifest["mh_corrected"] == [0]
    assert "w11" in manifest["wall_time"][0]
    assert set(manifest["threads"]) == {*cli.THREAD_VARS, "cpu_count"}
    assert manifest["threads"]["cpu_count"] == os.cpu_count()
    for var in cli.THREAD_VARS:
        assert manifest["threads"][var] == os.environ.get(var)
    # manifest round-trips through its dataclass
    again = cli.RunManifest.from_dict(manifest)
    assert again.to_dict() == manifest


def test_fit_determinism_byte_identical(sim_dir, tmp_path):
    fit = tmp_path / "fit"
    args = ("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0",
            "--gamma", "5", "--burn-in", "5", "--samples", "10",
            "--seed", "7", "--out-dir", str(fit))
    assert _run(*args) == 0
    first = (fit / "edges.csv").read_bytes()
    first_sum = (fit / "summary.json").read_bytes()
    assert _run(*args) == 0
    assert (fit / "edges.csv").read_bytes() == first
    assert (fit / "summary.json").read_bytes() == first_sum


def test_fit_multiple_chains(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("BMB_THREADS", "2")
    fit = tmp_path / "fit"
    rc = _run("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0,v1",
              "--gamma", "10", "--burn-in", "2", "--samples", "4",
              "--seed", "5", "--chains", "2", "--out-dir", str(fit))
    assert rc == 0
    assert sorted(f.name for f in fit.glob("edges*.csv")) == [
        "edges_c0.csv", "edges_c1.csv"]
    _, _, c0 = read_edges_csv(fit / "edges_c0.csv")
    _, _, c1 = read_edges_csv(fit / "edges_c1.csv")
    assert not np.array_equal(c0, c1)
    manifest = read_json(fit / "manifest.json")
    assert len(manifest["wall_time"]) == 2


def test_lambda_alias_sets_gamma():
    parser = cli.build_parser()
    args = parser.parse_args(["fit", "--data", "d.csv", "--query", "a",
                              "--lambda", "37.5"])
    assert args.gamma == 37.5


def test_exit_codes(sim_dir, tmp_path):
    out = str(tmp_path / "o")
    # 2: bad flag value
    assert _run("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0",
                "--level", "2.0", "--out-dir", out) == 2
    # 2: query name does not resolve
    assert _run("fit", "--data", str(sim_dir / "data.csv"),
                "--query", "bogus", "--out-dir", out) == 2
    # 2: argparse rejects unknown flags
    assert _run("fit", "--nonsense") == 2
    # 3: unreadable input
    assert _run("fit", "--data", str(tmp_path / "none.csv"), "--query", "v0",
                "--out-dir", out) == 3
    # 3: ill-formed rows
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n3\n")
    assert _run("fit", "--data", str(bad), "--query", "a",
                "--out-dir", out) == 3


def test_exit_code_na_cells_plain_fit(sim_dir, tmp_path):
    rows = (sim_dir / "data.csv").read_text().splitlines()
    cells = rows[1].split(",")
    cells[0] = "NA"
    rows[1] = ",".join(cells)
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(rows) + "\n")
    assert _run("fit", "--data", str(holed), "--query", "v0",
                "--out-dir", str(tmp_path / "o")) == 3
    # but fit-copula accepts the same file
    rc = _run("fit-copula", "--data", str(holed), "--query", "v0",
              "--gamma", "5", "--burn-in", "2", "--samples", "4",
              "--out-dir", str(tmp_path / "cop"))
    assert rc == 0


def test_exit_code_constant_variable(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("a,b,c\n1,2,0.5\n1,3,0.7\n1,4,0.1\n")
    assert _run("fit-copula", "--data", str(p), "--query", "b",
                "--burn-in", "0", "--samples", "2",
                "--out-dir", str(tmp_path / "o")) == 5


def test_exit_code_sampler_failure(sim_dir, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise NotPositiveDefinite("synthetic failure")

    # cli imports the sampler inside the chain worker, so patch it there.
    monkeypatch.setattr(bmb.sampler, "run_chain", boom)
    assert _run("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0",
                "--out-dir", str(tmp_path / "o")) == 4


def test_diagnose_outputs_and_lag_count(sim_dir, tmp_path, caplog):
    fit = tmp_path / "fit"
    assert _run("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0",
                "--gamma", "5", "--burn-in", "5", "--samples", "60",
                "--seed", "2", "--out-dir", str(fit)) == 0
    diag = tmp_path / "diag"
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="bmb.cli"):
        assert _run("diagnose", "--data", str(fit / "edges.csv"),
                    "--max-lag", "12", "--edges", "v0:v2",
                    "--out-dir", str(diag)) == 0
    # 60 draws are too few for geweke_z: one warning covers all 7 edges
    warned = [r.getMessage() for r in caplog.records
              if r.levelno == logging.WARNING]
    assert warned == ["geweke_z is NA for 7 of 7 edges: it needs at least "
                      "100 kept draws, got 60"]
    rows = (diag / "diagnostics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["NA"] * 7
    header = (diag / "diagnostics.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["query", "other", "ess", "geweke_z"]
    assert header[4:] == [f"acf_lag{k}" for k in range(1, 13)]
    traces = (diag / "traces.csv").read_text().splitlines()
    assert traces[0] == "sample,v0:v2"
    assert len(traces) == 61
    # unknown trace pair is a flag error
    assert _run("diagnose", "--data", str(fit / "edges.csv"),
                "--edges", "v0:bogus", "--out-dir", str(diag)) == 2
    # 'none' gives a header-only file
    assert _run("diagnose", "--data", str(fit / "edges.csv"),
                "--edges", "none", "--out-dir", str(diag)) == 0
    assert (diag / "traces.csv").read_text() == "sample\n"


def test_evaluate_scores_against_truth(sim_dir, tmp_path):
    fit = tmp_path / "fit"
    assert _run("fit", "--data", str(sim_dir / "data.csv"),
                "--query", "v0,v1", "--gamma", "10", "--burn-in", "20",
                "--samples", "80", "--seed", "4", "--out-dir", str(fit)) == 0
    ev = tmp_path / "eval"
    assert _run("evaluate", "--data", str(fit / "edges.csv"),
                "--truth", str(sim_dir / "truth.csv"),
                "--out-dir", str(ev)) == 0
    rep = read_json(ev / "score.json")
    for key in ("precision", "recall", "fscore", "true_positive",
                "wrong_sign", "spurious", "missed"):
        assert key in rep
    assert 0.0 <= rep["fscore"] <= 1.0
    # mismatched variable sets are a data error
    other_truth = tmp_path / "other_truth.csv"
    other_truth.write_text("query,z1\nq9,0.0\n")
    assert _run("evaluate", "--data", str(fit / "edges.csv"),
                "--truth", str(other_truth), "--out-dir", str(ev)) == 3


def test_simulate_zero_density(tmp_path):
    out = tmp_path / "z"
    assert _run("simulate", "--p", "1", "--q", "4", "--n", "30",
                "--edge-density", "0", "--out-dir", str(out)) == 0
    _, _, blanket = read_truth_csv(out / "truth.csv")
    assert np.count_nonzero(blanket) == 0


def test_fit_and_fit_copula_agree_on_continuous_data(tmp_path):
    from bmb.io import read_data_csv, write_data_csv

    assert _run("simulate", "--p", "2", "--q", "8", "--n", "300", "--seed", "9",
                "--edge-density", "0.12", "--out-dir", str(tmp_path / "sim")) == 0
    data = read_data_csv(tmp_path / "sim" / "data.csv")
    vals = data.values
    data.values[:] = ((vals - vals.mean(axis=1, keepdims=True))
                      / vals.std(axis=1, keepdims=True))
    write_data_csv(tmp_path / "std.csv", data)

    common = ("--data", str(tmp_path / "std.csv"), "--query", "v0,v1",
              "--gamma", "25", "--burn-in", "100", "--samples", "300",
              "--seed", "2")
    assert _run("fit", *common, "--no-center",
                "--out-dir", str(tmp_path / "f")) == 0
    assert _run("fit-copula", *common, "--out-dir", str(tmp_path / "c")) == 0
    m1 = [e["mean"] for e in read_json(tmp_path / "f" / "summary.json")["edges"]]
    m2 = [e["mean"] for e in read_json(tmp_path / "c" / "summary.json")["edges"]]
    assert np.corrcoef(m1, m2)[0, 1] > 0.9


def test_fit_copula_accepts_seven_query_names(tmp_path):
    assert _run("simulate", "--p", "7", "--q", "11", "--n", "60", "--seed", "1",
                "--out-dir", str(tmp_path / "sim")) == 0
    rc = _run("fit-copula", "--data", str(tmp_path / "sim" / "data.csv"),
              "--query", ",".join(f"v{i}" for i in range(7)),
              "--burn-in", "2", "--samples", "4",
              "--out-dir", str(tmp_path / "o"))
    assert rc == 0
    _, _, w12 = read_edges_csv(tmp_path / "o" / "edges.csv")
    assert w12.shape == (4, 7, 11)


def test_bad_bmb_threads_is_tolerated(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("BMB_THREADS", "soup")
    assert _run("fit", "--data", str(sim_dir / "data.csv"), "--query", "v0",
                "--gamma", "5", "--burn-in", "2", "--samples", "4",
                "--chains", "2", "--out-dir", str(tmp_path / "o")) == 0


def _kinds_fit(tmp_path, kind):
    data = tmp_path / "mixed.csv"
    g = np.random.default_rng(6)
    rows = ["a,b,c"] + [f"{int(u > 0)},{u + v},{v}"
                        for u, v in g.standard_normal((40, 2)).tolist()]
    data.write_text("\n".join(rows) + "\n")
    kinds = tmp_path / f"kinds_{kind}.csv"
    kinds.write_text(f"name,kind\na,{kind}\n")
    out = tmp_path / kind
    rc = _run("fit-copula", "--data", str(data), "--kinds", str(kinds),
              "--query", "b", "--gamma", "5", "--burn-in", "2",
              "--samples", "4", "--seed", "3", "--out-dir", str(out))
    return rc, out


def test_kinds_binary_accepted_and_unused_by_the_fit(tmp_path):
    rc, binary = _kinds_fit(tmp_path, "binary")
    assert rc == 0
    rc, ordinal = _kinds_fit(tmp_path, "ordinal")
    assert rc == 0
    assert (binary / "edges.csv").read_bytes() == (ordinal / "edges.csv").read_bytes()
    rc, _ = _kinds_fit(tmp_path, "categorical")
    assert rc == 3


def test_kinds_binary_with_more_than_two_levels_exits_3(tmp_path, caplog):
    data = tmp_path / "mixed.csv"
    data.write_text("a,b,c\n" + "".join(
        f"{i % 3},{i % 2},{(i * 7) % 11}\n" for i in range(30)))
    kinds = tmp_path / "kinds.csv"
    kinds.write_text("name,kind\nb,binary\na,binary\n")
    rc = _run("fit-copula", "--data", str(data), "--kinds", str(kinds),
              "--query", "c", "--burn-in", "2", "--samples", "4",
              "--out-dir", str(tmp_path / "o"))
    assert rc == 3
    assert "'a' is declared binary but has 3 distinct observed values" in caplog.text


def test_cli_import_skips_scipy_stats(tmp_path):
    # scipy.stats costs more to import than the rest of bmb together, only
    # fit-copula needs scipy.special, and only fit and simulate need
    # scipy.linalg, so diagnose and evaluate load none of them.
    g = np.random.default_rng(4)
    write_edges_csv(tmp_path / "edges.csv", ["q0", "q1"], ["o0", "o1", "o2"],
                    g.standard_normal((30, 2, 3)))
    write_truth_csv(tmp_path / "truth.csv", ["q0", "q1"], ["o0", "o1", "o2"],
                    np.array([[0.5, 0.0, 0.0], [0.0, -0.4, 0.0]]))
    code = (
        "import sys, bmb.cli\n"
        "edges, out = sys.argv[1] + '/edges.csv', sys.argv[1]\n"
        "assert bmb.cli.main(['evaluate', '--data', edges, '--truth', "
        "out + '/truth.csv', '--out-dir', out + '/eval']) == 0\n"
        "assert bmb.cli.main(['diagnose', '--data', edges, '--max-lag', '5', "
        "'--out-dir', out + '/diag']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True,
                          env=dict(os.environ,
                                   PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "eval" / "score.json").is_file()
    assert (tmp_path / "diag" / "diagnostics.csv").is_file()


def test_package_names_resolve():
    for name in bmb.__all__:
        assert getattr(bmb, name) is not None
    assert bmb.run_chain is bmb.sampler.run_chain
    assert bmb.score is importlib.import_module("bmb.synthetic").score
    with pytest.raises(AttributeError):
        bmb.no_such_name
