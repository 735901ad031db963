"""Posterior inference for the Markov blanket of query variables in a
Gaussian graphical model, with a rank-copula extension for mixed data.

The public names below are imported from their modules on first use
(PEP 562), so importing ``bmb`` or a light module such as ``bmb.io`` does
not load the sampler or scipy.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_SOURCES = {
    "BlanketEstimate": "synthetic",
    "ChainConfig": "sampler",
    "ChainOutput": "sampler",
    "ChainSeries": "diagnostics",
    "CopulaConfig": "copula",
    "DataMatrix": "linalg",
    "GraphSpec": "synthetic",
    "GroundTruth": "synthetic",
    "HyperParams": "sampler",
    "MixedDataTable": "copula",
    "PartitionedCov": "linalg",
    "RngStream": "rng",
    "ScoreReport": "synthetic",
    "SpdMatrix": "linalg",
    "autocorrelation": "diagnostics",
    "effective_sample_size": "diagnostics",
    "gen_precision": "synthetic",
    "geweke_z": "diagnostics",
    "partition_scatter": "linalg",
    "run_chain": "sampler",
    "run_copula_chain": "copula",
    "score": "synthetic",
    "simulate_data": "synthetic",
    "threshold_blanket": "synthetic",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name: str):
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
