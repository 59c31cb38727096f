"""In-memory spans around every public function of the program's layers.

``install`` replaces each public function of a layer module, at every name a
``marketstates`` module binds it to, with a wrapper that records a span
(layer, function, start, end, parent) plus a few counters read from the
call's arguments and result.  Nothing under ``src/`` changes: the wrappers
live only in the traced process.  Spans nest through a call stack, so the
process must run the operation in one thread (``workers=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from time import perf_counter

import numpy as np

#: Module names of the layers, in pipeline order.  ``cli`` and ``demo`` are
#: thin drivers and stay off the benchmark's path.
LAYERS = ("ingest", "corrmat", "rmt", "geometry", "states", "sector", "trajectory",
          "serialize", "pipeline")

#: Helpers called once per float or per epoch: a span each would cost more
#: than they do and inflate their callers' times.
UNWRAPPED = {"format_float", "epoch_bounds", "epoch_count"}


def _size_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _similarity_probe(args, kwargs, result):
    stack = args[0]
    if isinstance(stack, np.ndarray):
        n, size = stack.shape[0], stack.shape[1] * stack.shape[2]
    else:
        n, size = len(stack.matrices), stack.matrices[0].values.size
    return {"pair_elems": n * (n - 1) // 2 * size}


def _epochs_probe(args, kwargs, result):
    return {"epochs": result.n_epochs, "n": len(result.labels),
            "covered": [(m.start_date, m.end_date) for m in result.matrices]}


def _kmeans_probe(args, kwargs, result):
    return {"iters": result.n_iterations, "repairs": result.n_repairs,
            "converged": result.converged}


def _path_probe(args, kwargs, result):
    return {"mb": _size_mb(args[0])}


def _catalog_probe(args, kwargs, result):
    return {"windows": len(args[1]), "failures": len(result[1])}


def _pooled_probe(args, kwargs, result):
    return {"realizations": args[0].ensemble_size}


PROBES = {
    "similarity_matrix": _similarity_probe,
    "epoch_correlations": _epochs_probe,
    "kmeans": _kmeans_probe,
    "save_arrays": _path_probe,
    "sha256_file": _path_probe,
    "classify_catalog": _catalog_probe,
    "pooled_eigenvalues": _pooled_probe,
}


class Recorder:
    """Spans of one process, kept in memory until the benchmark writes them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "layer": layer, "name": name}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["t0"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = perf_counter()
                self._stack.pop()
            if probe is not None:
                span.update(probe(args, kwargs, result))
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every public layer function wherever a layer module binds it."""
    modules = [importlib.import_module(f"marketstates.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for name, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and name not in UNWRAPPED):
                wrappers[value] = recorder.wrap(layer, name, value)
    for module in modules:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, name, wrappers[value])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap and their
    durations add up to the part of the parent they cover."""
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counters; a layer off the path reads 0."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def within(span, name):
        while span is not None:
            if span["name"] == name:
                return True
            span = by_id.get(span["parent"])
        return False

    def self_of(names=None, layer=None, under=None):
        return sum(own[s["id"]] for s in spans
                   if (names is None or s["name"] in names)
                   and (layer is None or s["layer"] == layer)
                   and (under is None or within(s, under)))

    def named(name):
        return [s for s in spans if s["name"] == name]

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_of(layer=layer)
    m["ingest.load_s"] = self_of({"load_prices", "load_panel"})
    m["ingest.load_calls"] = len(named("load_prices"))
    m["ingest.save_s"] = self_of({"save_panel"})

    epochs = named("epoch_correlations")
    m["corrmat.corr_s"] = self_of({"epoch_correlations", "pearson_correlation"})
    m["corrmat.power_map_s"] = self_of({"power_map"})
    m["corrmat.epochs_computed"] = sum(s["epochs"] for s in epochs)
    distinct = len({pair for s in epochs for pair in s["covered"]})
    m["corrmat.epochs_redundancy"] = m["corrmat.epochs_computed"] / distinct if distinct else 0.0
    m["corrmat.stack_mb"] = max((s["epochs"] * s["n"] ** 2 * 8 / 1e6 for s in epochs), default=0.0)

    m["rmt.pooled_s"] = self_of(layer="rmt", under="pooled_eigenvalues")
    m["rmt.realizations"] = sum(s["realizations"] for s in named("pooled_eigenvalues"))

    m["geometry.similarity_s"] = self_of({"similarity_matrix"})
    m["geometry.similarity_calls"] = len(named("similarity_matrix"))
    m["geometry.pair_elems"] = sum(s["pair_elems"] for s in named("similarity_matrix"))
    m["geometry.mds_s"] = self_of({"classical_mds"})
    m["geometry.fidelity_s"] = self_of({"dimension_fidelity"})

    runs = named("kmeans")
    m["states.grid_s"] = self_of(layer="states", under="optimize_over_grid")
    m["states.fit_s"] = m["states.self_s"] - m["states.grid_s"]
    m["states.kmeans_runs"] = len(runs)
    m["states.lloyd_iters"] = sum(s["iters"] for s in runs)
    m["states.repairs"] = sum(s["repairs"] for s in runs)
    m["states.nonconverged_frac"] = (sum(not s["converged"] for s in runs) / len(runs)) if runs else 0.0

    m["sector.series_s"] = self_of({"sector_series"})

    m["trajectory.classify_s"] = self_of(layer="trajectory", under="classify_catalog")
    m["trajectory.windows"] = sum(s["windows"] for s in named("classify_catalog"))
    m["trajectory.failures"] = sum(s["failures"] for s in named("classify_catalog"))

    m["serialize.save_arrays_s"] = self_of({"save_arrays"})
    m["serialize.written_mb"] = sum(s["mb"] for s in named("save_arrays"))
    m["serialize.load_arrays_s"] = self_of({"load_arrays"})
    m["serialize.load_arrays_calls"] = len(named("load_arrays"))
    m["serialize.sha256_s"] = self_of({"sha256_file"})
    m["serialize.hashed_mb"] = sum(s["mb"] for s in named("sha256_file"))
    return m
