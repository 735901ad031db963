"""Run one ``bmb`` command-line call in this process, optionally traced.

Usage: python3 child.py SRC_DIR SPANS_OUT -- BMB_ARGS...

SRC_DIR is the source tree whose ``bmb`` package is imported (the call
fails if another copy would be used).  With SPANS_OUT set to ``-`` this is
``bmb BMB_ARGS...`` with nothing added.  Otherwise the public functions of
each ``bmb`` module are wrapped from outside, under every name a caller can
look them up by, and the spans they record are kept in memory and written
to SPANS_OUT as JSON when the command ends.  The parent sets the BLAS
thread variables before this interpreter loads numpy.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# (module, attribute) pairs whose calls become spans.  The layer names in
# the benchmark's metrics are these with the "bmb." prefix dropped.
TRACED = (
    ("cli", "cmd_fit"), ("cli", "cmd_fit_copula"), ("cli", "cmd_diagnose"),
    ("cli", "cmd_evaluate"),
    ("io", "read_data_csv"), ("io", "write_edges_csv"),
    ("io", "read_edges_csv"),
    ("linalg", "partition_scatter"), ("linalg", "PartitionedCov"),
    ("sampler", "run_chain"), ("sampler", "build_structured_precision"),
    ("sampler", "sample_scales"), ("sampler", "sample_w12"),
    ("sampler", "structured_chol"), ("sampler", "sample_w11"),
    ("sampler", "log_posterior_unnorm"),
    ("rng", "sample_mgig"), ("rng", "sample_truncated_normal"),
    ("copula", "run_copula_chain"), ("copula", "compute_bounds"),
    ("copula", "init_latent"), ("copula", "sample_latent"),
    ("copula", "sample_sigma_full"),
    ("diagnostics", "autocorrelation"),
    ("diagnostics", "effective_sample_size"), ("diagnostics", "geweke_z"),
    ("synthetic", "threshold_blanket"), ("synthetic", "score"),
)
MODULES = ("cli", "io", "linalg", "sampler", "rng", "copula", "diagnostics",
           "synthetic")


class Tracer:
    """Spans as (layer, start, end, parent index, extra) tuples.

    ``extra`` carries a per-call count where one is measured: the shape
    (p, q) of structured_chol, the cells drawn by sample_truncated_normal,
    the bytes written by write_edges_csv, the continued-fraction levels and
    convergence flag of sample_mgig.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.level_rows = 0  # Bartlett factors drawn by the continued fraction

    def wrap(self, layer: str, fn, probe=None):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append(idx)
            rows0 = self.level_rows
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                # The caller may catch it (diagnose does, for series too
                # short for a Geweke window); the span still counts.
                self.spans[idx] = (layer, start, time.perf_counter(),
                                   parent, None)
                raise
            finally:
                self.stack.pop()
            end = time.perf_counter()
            extra = probe(self, args, out, rows0) if probe else None
            self.spans[idx] = (layer, start, end, parent, extra)
            return out

        return traced

    def install(self, bmb_modules: dict) -> None:
        """Wrap every TRACED function wherever a module binds it.

        A class is traced through its ``__init__``, which every construction
        reaches; the continued fraction's Bartlett blocks are counted, not
        traced.
        """
        for mod_name, attr in TRACED:
            layer = f"{mod_name}.{attr}"
            original = getattr(bmb_modules[mod_name], attr)
            if isinstance(original, type):
                init = original.__init__
                original.__init__ = self.wrap(layer, init)
                continue
            traced = self.wrap(layer, original, PROBES.get(layer))
            for mod in bmb_modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, traced)

        rng_module = bmb_modules["rng"]
        bartlett = rng_module._bartlett_block

        def counted(rng, df, d, m):
            self.level_rows += m
            return bartlett(rng, df, d, m)

        rng_module._bartlett_block = counted

    def dump(self, path: Path, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": self.spans}, fh)


def _chol_shape(tracer, args, out, rows0):
    return [out.p, out.q]


def _cells(tracer, args, out, rows0):
    return int(getattr(out, "size", 1))


def _bytes_written(tracer, args, out, rows0):
    return Path(args[0]).stat().st_size


def _levels(tracer, args, out, rows0):
    # Each continued-fraction level draws one Bartlett factor for A and one
    # for B, so the level count is half the factors requested.
    return [(tracer.level_rows - rows0) // 2, int(not out[1])]


PROBES = {
    "sampler.structured_chol": _chol_shape,
    "rng.sample_truncated_normal": _cells,
    "io.write_edges_csv": _bytes_written,
    "rng.sample_mgig": _levels,
}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    spans_out = None if argv[1] == "-" else Path(argv[1])
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import bmb.cli
    import_s = time.perf_counter() - t0
    if src not in Path(bmb.cli.__file__).resolve().parents:
        print(f"bmb imported from {bmb.cli.__file__}, not {src}",
              file=sys.stderr)
        return 90
    tracer = None
    if spans_out is not None:
        import importlib
        tracer = Tracer()
        tracer.install({m: importlib.import_module(f"bmb.{m}")
                        for m in MODULES})
    code = bmb.cli.main(argv[3:])
    if tracer is not None:
        tracer.dump(spans_out, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
