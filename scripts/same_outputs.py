"""Check that the command line writes the same bytes as at another commit.

Usage: python3 scripts/same_outputs.py REV

Exports REV with ``git archive`` into a temporary directory, then runs one
fixed set of ``bmb`` commands twice: with the exported ``src/`` and with
this checkout's ``src/`` (uncommitted changes included).  Both runs use
the same output paths and set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1, because outputs may differ in the last bits between
BLAS thread counts.  Every file written is compared with ``cmp``;
``manifest.json`` is compared with its ``wall_time`` values removed.

The set: ``simulate`` (p = 3, q = 20, n = 200) and four fits of that data
(thinned, two chains, ``--no-center``, and ``fit-copula`` on a copy with
three recoded columns, 4% NA cells and ``--kinds``); a fit of a p = 1
simulation, so the scalar continued fraction runs; a fit of a simulation
with fewer observations than other variables, so the low-rank W12 draw
runs; ``diagnose`` plus ``evaluate`` on every edges file; and two more
``diagnose`` runs on the thinned fit's edges, with an explicit ``--edges``
selection and with ``--edges none``, so ``traces.csv`` is written for a
chosen set of edges and for none.

Exits 0 when every file is identical, 1 when a file differs or exists in
one run only, and 2 on a usage error or a failing command.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CHAIN = ["--gamma", "30", "--burn-in", "20"]
QUERY = ["--query", "v0,v1,v2"]

# Output dir and arguments of each simulation; evaluate scores a fit
# against the truth of the simulation it read (the copula fit reads sim).
SIMS = (
    ("sim", ["--p", "3", "--q", "20", "--n", "200", "--seed", "7"]),
    ("sim-p1", ["--p", "1", "--q", "20", "--n", "200", "--seed", "31"]),
    ("sim-wide", ["--p", "2", "--q", "40", "--n", "25", "--seed", "23"]),
)

# (output dir, data dir it reads, arguments before --data and --out-dir)
FITS = (
    ("fit-thin", "sim", ["fit", *QUERY, *CHAIN, "--seed", "11",
                         "--samples", "120", "--thin", "2"]),
    ("fit-chains", "sim", ["fit", *QUERY, *CHAIN, "--seed", "11",
                           "--samples", "110", "--chains", "2"]),
    ("fit-p1", "sim-p1", ["fit", "--query", "v0", *CHAIN, "--seed", "17",
                          "--samples", "110"]),
    ("fit-no-center", "sim", ["fit", *QUERY, *CHAIN, "--seed", "19",
                              "--samples", "110", "--no-center"]),
    ("fit-copula", "mixed", ["fit-copula", *QUERY, *CHAIN, "--seed", "13",
                             "--samples", "110", "--inner-sweeps", "2"]),
    ("fit-wide", "sim-wide", ["fit", "--query", "v0,v1", *CHAIN,
                              "--seed", "29", "--samples", "110"]),
)

# (output dir, --edges value) of the extra diagnose runs on fit-thin's edges.
TRACES = (
    ("diagnose-selected", "v2:v10,v0:v3,v1:v22,v0:v3"),
    ("diagnose-none", "none"),
)


class CommandFailed(Exception):
    pass


def export(rev: str, dest: Path) -> None:
    """Write the tree of commit ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True)
    if archive.returncode != 0:
        raise CommandFailed(archive.stderr.decode().strip())
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout,
                   check=True)


def recode_mixed(src: Path, dest: Path) -> None:
    """Copy data.csv with v3 binary, v4 and v5 ordinal and 4% NA cells."""
    with open(src / "data.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    recode = {
        "v3": lambda x: float(x > 0.0),
        "v4": lambda x: float(min(4, max(0, math.floor(x + 2.0)))),
        "v5": lambda x: float(round(2.0 * x)),
    }
    for i, row in enumerate(body):
        for j, name in enumerate(header):
            if (7 * i + 13 * j) % 25 == 0:
                row[j] = "NA"
            elif name in recode:
                row[j] = repr(recode[name](float(row[j])))
    dest.mkdir()
    with open(dest / "data.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *body])
    with open(dest / "kinds.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["name", "kind"], ["v3", "binary"], ["v4", "ordinal"],
             ["v5", "ordinal"], ["v0", "continuous"]])


def run_set(src: Path, work: Path) -> None:
    """Run the command set with the ``bmb`` package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update({var: "1" for var in THREAD_VARS})

    def bmb(*args: str) -> None:
        proc = subprocess.run([sys.executable, "-m", "bmb.cli", *args],
                              env=env, cwd=work, capture_output=True)
        if proc.returncode != 0:
            raise CommandFailed(f"exit {proc.returncode} from bmb "
                                f"{' '.join(args)} with {src}:\n"
                                f"{proc.stderr.decode()[-2000:]}")

    where = subprocess.run(
        [sys.executable, "-c", "import bmb; print(bmb.__file__)"],
        env=env, capture_output=True, text=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        raise CommandFailed(f"bmb imported from {where!r}, not from {src}")

    for out, args in SIMS:
        bmb("simulate", *args, "--out-dir", str(work / out))
    recode_mixed(work / "sim", work / "mixed")
    for out, data, args in FITS:
        extra = (["--kinds", str(work / data / "kinds.csv")]
                 if data == "mixed" else [])
        bmb(*args, *extra, "--data", str(work / data / "data.csv"),
            "--out-dir", str(work / out))
        truth = work / ("sim" if data == "mixed" else data)
        for edges in sorted((work / out).glob("edges*.csv")):
            tag = edges.stem
            bmb("diagnose", "--data", str(edges),
                "--out-dir", str(work / out / f"diagnose-{tag}"))
            bmb("evaluate", "--data", str(edges),
                "--truth", str(truth / "truth.csv"),
                "--out-dir", str(work / out / f"evaluate-{tag}"))
    for out, edges in TRACES:
        bmb("diagnose", "--data", str(work / "fit-thin" / "edges.csv"),
            "--max-lag", "7", "--edges", edges,
            "--out-dir", str(work / "fit-thin" / out))


def _without_wall_time(path: Path) -> dict:
    record = json.loads(path.read_text(encoding="utf-8"))
    record.pop("wall_time", None)
    return record


def differences(base: Path, head: Path) -> tuple[list[str], int]:
    """Relative paths that differ between the two runs, and the file count."""
    names = sorted({p.relative_to(run).as_posix()
                    for run in (base, head)
                    for p in run.rglob("*") if p.is_file()})
    bad = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            bad.append(f"{name} (written by one run only)")
        elif a.name == "manifest.json":
            if _without_wall_time(a) != _without_wall_time(b):
                bad.append(f"{name} (outside wall_time)")
        elif subprocess.run(["cmp", "-s", str(a), str(b)]).returncode != 0:
            bad.append(name)
    return bad, len(names)


def compare(rev: str, run=run_set) -> int:
    """Run ``run(src, work)`` at ``rev`` and here; 0 when the bytes agree."""
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "tree")
        work = tmp / "work"
        for label, src in (("base", tmp / "tree" / "src"),
                           ("head", ROOT / "src")):
            work.mkdir()
            run(src, work)
            shutil.move(str(work), str(tmp / label))
        bad, total = differences(tmp / "base", tmp / "head")
    for name in bad:
        print(f"differs: {name}")
    print(f"{total - len(bad)} of {total} files identical to {rev}")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        return compare(argv[0])
    except CommandFailed as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
