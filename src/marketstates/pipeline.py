"""Pipeline orchestration: flat-file config, staged runs, and a hash manifest.

A run executes up to six stages in dependency order — ingest, corr, states,
sectors, trajectory, rmt — each writing its artifacts under the
output directory plus a manifest entry (input hashes, parameters, output
hashes).  ``_STAGES`` declares each stage once: its function, its config
keys (its parameters) and its input files.  The function sees only those
keys and files, so its manifest key covers everything it reads.  A stage
whose inputs, parameters, and outputs all hash the same as the previous run
is skipped, so reruns are cheap and `--force` is explicit.  Worker counts
never appear in artifacts: a run is byte-reproducible.  Each artifact has
one writer here, which the CLI subcommands call as well, and a state
model's ``model.json`` has one reader, ``read_state_of``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import traceback
from collections.abc import Callable, Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .corrmat import (
    EpochCorrelationSeries,
    EpochSpec,
    _check_epsilon,
    load_series,
    save_epoch_correlations,
)
from .errors import DataError, NumericError, exit_code
from .geometry import Embedding, _check_workers, _clipped, _mds, similarity_matrix, step_fidelity
from .ingest import (
    ContinuityPolicy,
    load_panel,
    load_prices,
    load_sector_map,
    log_returns,
    save_panel,
)
from .rmt import (
    SPECTRUM_BINS,
    WishartSpec,
    _check_bins,
    l1_to_analytic,
    mp_support,
    outside_support_fraction,
    pooled_eigenvalues,
    spectrum_from_eigenvalues,
)
from .sector import displacement, sector_series
from .serialize import (
    read_json,
    save_arrays,
    sha256_file,
    write_csv,
    write_json,
)
from .states import (
    K_MIN,
    MAP_DIM,
    _check_distinct,
    _check_fit,
    fit_series,
    optimize_over_grid,
    select_optimum,
)
from .trajectory import (
    DEFAULT_THRESHOLD,
    DEFAULT_WIDTH_DAYS,
    _check_width,
    classify_catalog,
    load_event_catalog,
)

PANEL = "panel.npz"  # the ingest stage's price panel, with PANEL + ".meta.json" beside it
# the default (k, epsilon) grid, in the syntax of the config file and the CLI
K_RANGE = "2..8"
EPSILON_GRID = "0:0.1:0.9"


# each grid point costs a kernel pass, an MDS map or a k-means ensemble per run, so a
# range with more points is a mistake, and listing it would allocate them before any check
MAX_GRID_POINTS = 1000


def parse_int_range(text: str) -> list[int]:
    """Integer list syntax: '4', '2..10' (inclusive), or '2,3,5'.

    A 'lo..hi' range has at most MAX_GRID_POINTS points.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {text!r}")
            if hi - lo + 1 > MAX_GRID_POINTS:  # before range lists them
                raise ValueError(f"{hi - lo + 1} points, more than {MAX_GRID_POINTS}")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        return [int(text)]
    except ValueError as exc:
        raise ValueError(f"bad integer range {text!r}: {exc}") from None


def parse_float_grid(text: str) -> list[float]:
    """Float list syntax: '0.5', 'start:step:stop' (inclusive, each finite), or '0,0.5,0.9'.

    A 'start:step:stop' grid has at most MAX_GRID_POINTS points.
    """
    text = text.strip()
    try:
        if ":" in text:
            start, step, stop = (float(part) for part in text.split(":"))
            if not all(map(math.isfinite, (start, step, stop))) or step <= 0 or stop < start:
                raise ValueError("need a finite start, step and stop, step > 0 and stop >= start")
            if not math.isfinite((stop - start) / step):
                raise ValueError("(stop - start) / step overflows")
            count = int(np.floor((stop - start) / step + 1e-9)) + 1
            if count > MAX_GRID_POINTS:  # before np.arange allocates them
                raise ValueError(f"{count} points, more than {MAX_GRID_POINTS}")
            return [float(v) for v in np.round(start + step * np.arange(count), 10)]
        if "," in text:
            return [float(part) for part in text.split(",") if part.strip()]
        return [float(text)]
    except ValueError as exc:
        raise ValueError(f"bad float grid {text!r}: {exc}") from None


# a '#' opens a config comment at the start of a line or after whitespace,
# so that a path such as data/run#1/prices.csv keeps its '#'
_COMMENT = re.compile(r"(?:^|(?<=\s))#")


@dataclass
class PipelineConfig:
    """Flat key=value configuration for a full pipeline run; the CLI's flags default to it."""

    prices: str = ""
    sectors: str = ""
    events: str = ""
    out_dir: str = "out"
    max_gap: int = ContinuityPolicy.max_consecutive_missing
    window: int = EpochSpec.window
    shift: int = EpochSpec.shift
    epsilon_grid: list[float] = field(default_factory=lambda: parse_float_grid(EPSILON_GRID))
    k_range: list[int] = field(default_factory=lambda: parse_int_range(K_RANGE))
    n_inits: int = 10
    seed: int = 0
    mds_dim: int = MAP_DIM
    k_min: int = K_MIN
    k: int = 0  # 0 means "use the grid optimum"
    epsilon: float = -1.0  # negative means "use the grid optimum"
    sector_k: int = 0  # 0 means "reuse the stock-level choice"
    sector_epsilon: float = -1.0
    threshold: float = DEFAULT_THRESHOLD
    width_days: int = DEFAULT_WIDTH_DAYS
    trajectory_epsilon: float = 0.0
    rmt_realizations: int = 50
    rmt_bins: int = SPECTRUM_BINS

    _PATHS = ("prices", "sectors", "events", "out_dir")
    # a field's parser by its annotation, which stays a string under __future__ annotations
    _PARSERS = {"int": int, "float": float, "str": str,
                "list[int]": parse_int_range, "list[float]": parse_float_grid}

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "PipelineConfig":
        config = cls()
        types = {f.name: f.type for f in fields(cls)}
        for key, value in mapping.items():
            if key not in types:
                raise DataError(f"unknown config key {key!r}")
            config = replace(config, **{key: _check_key(key, cls._PARSERS[types[key]], value)})
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        mapping: dict[str, str] = {}
        set_on: dict[str, int] = {}  # the line that sets each key
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = _COMMENT.split(raw_line, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in set_on:
                raise DataError(f"{path}:{lineno}: key {key!r} is set again, "
                                f"first on line {set_on[key]}")
            mapping[key] = value
            set_on[key] = lineno
        return cls.from_mapping(mapping)

    def validate(self) -> None:
        if not self.prices:
            raise DataError("config needs a 'prices' path")
        for label, candidate in (("prices", self.prices), ("sectors", self.sectors),
                                 ("events", self.events)):
            if candidate and not Path(candidate).exists():
                raise DataError(f"{label} file {candidate!r} does not exist")
        if self.n_inits < 2:
            raise DataError(f"config n_inits: must be >= 2, got {self.n_inits}")
        for key in ("k_range", "epsilon_grid"):
            if not getattr(self, key):
                raise DataError(f"config {key}: must be non-empty")
            _check_key(key, _check_distinct, key, getattr(self, key))
        if max(self.k_range) < self.k_min:
            raise DataError(f"config k_min: {self.k_min} exceeds every k in k_range {self.k_range}")
        for key, value in (("mds_dim", self.mds_dim), ("k_range", min(self.k_range)),
                           ("rmt_bins", self.rmt_bins),
                           ("rmt_realizations", self.rmt_realizations)):
            if value < 1:
                raise DataError(f"config {key}: must be >= 1, got {value}")
        for key in ("seed", "k", "sector_k"):
            if getattr(self, key) < 0:
                raise DataError(f"config {key}: must be >= 0, got {getattr(self, key)}")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise DataError(f"config {f.name}: must be finite, got {getattr(self, f.name)}")
        # the rules of the stages that take these values, checked before any stage runs
        _check_key("window/shift", EpochSpec, self.window, self.shift)
        _check_key("max_gap", ContinuityPolicy, self.max_gap)
        for eps in self.epsilon_grid:
            _check_key("epsilon_grid", _check_epsilon, eps)
        if self.events:
            _check_key("width_days", _check_width, self.width_days)
            _check_key("trajectory_epsilon", _check_epsilon, self.trajectory_epsilon)

    def as_manifest_dict(self, names: dict[Path, str | None]) -> dict:
        """Every field; a path inside the output dir by its name there (see ``_portable_names``)."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._PATHS and value:
                value = names[Path(value)] or value
            payload[f.name] = value
        return payload


def _check_key(key: str, check, *values):
    """``check(*values)``, its ValueError a DataError naming the config key."""
    try:
        return check(*values)
    except ValueError as exc:
        raise DataError(f"config {key}: {exc}") from None


def _portable_names(cfg: PipelineConfig, out: Path) -> dict[Path, str | None]:
    """Each configured path's name relative to the output dir, None when outside it.

    Names relative to the output dir keep manifests location-free.  Each
    path is resolved here, once per run: with ``..`` a path can lie inside
    the output dir while lexically it does not, and the reverse.
    """
    root = out.resolve()
    names = {}
    for value in (getattr(cfg, key) for key in cfg._PATHS):
        if value:
            try:
                names[Path(value)] = Path(value).resolve().relative_to(root).as_posix()
            except ValueError:
                names[Path(value)] = None
    return names


def _xyz(coords: np.ndarray) -> np.ndarray:
    """The first three map axes, zero-padded when the map has fewer."""
    padded = np.zeros((coords.shape[0], 3))
    padded[:, :min(coords.shape[1], 3)] = coords[:, :3]
    return padded


def _mirrored_rows(matrix: np.ndarray):
    """Yield each row of a symmetric matrix as its entries' reprs joined by commas.

    Each value on or above the diagonal is formatted once, in its row; the
    texts below the diagonal are those of earlier rows, kept only until the
    row that needs them is made.
    """
    n = matrix.shape[0]
    below: list[list[str]] = [[] for _ in range(n)]  # row i's texts of columns < i
    for i in range(n):
        upper = list(map(repr, matrix[i, i:].tolist()))
        for later, text in zip(below[i + 1:], upper[1:]):
            later.append(text)
        yield ",".join(below[i] + upper)
        below[i] = []


def trajectory_report_payload(report) -> dict:
    """JSON-safe row: every field of the report but its coordinates, plus ``n_epochs``.

    A NaN var_ratio (a window with no trajectory) is written as null.
    """
    payload = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "coordinates"}
    ratio = report.var_ratio
    payload.update(n_epochs=report.n_epochs, var_ratio=None if ratio != ratio else ratio)
    return payload


# --------------------------------------------------------------------------
# artifact writers and the state-model reader, shared by the pipeline stages and the CLI


def write_panel(prices: str | Path, max_gap: int, path: Path):
    """Load prices under the continuity policy and save them.

    Writes ``path`` and its ``.meta.json`` sidecar; returns the kept panel.
    """
    panel = load_prices(prices, ContinuityPolicy(max_consecutive_missing=max_gap))
    save_panel(panel, path)
    return panel


def write_map(series: EpochCorrelationSeries, dim: int, out_dir: Path,
              workers: int = 1) -> Embedding:
    """Classical MDS map of an epoch series: coordinates plus eigenvalue and fidelity meta.

    Writes ``map_coords.csv``, each row labelled with its epoch's start
    date, and ``map_meta.json`` under ``out_dir``; returns the epsilon 0
    map on ``dim`` axes.  One map of min(max(dim, 4), epochs - 1) axes from
    the solver every map takes (``geometry._mds``) serves both: the
    returned map is its first ``dim`` axes, and ``dimension_fidelity``
    correlates its first D <= 4 axes' step lengths with the measured
    matrix-space steps zeta(t, t+1).  ``n_clipped`` and ``clipped_mass``
    come from the distances' eigenvalues alone, taken in their own buffer
    after the map.
    ``workers`` threads run the dissimilarity kernel.
    """
    n = series.n_epochs
    _check_fit(n, [], dim)
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = similarity_matrix(series, workers)
    full = _mds(sim, min(max(dim, 4), n - 1))
    embedding = Embedding(coordinates=full.coordinates[:, :dim].copy(),
                          eigenvalues=full.eigenvalues[:dim].copy())
    padded = _xyz(embedding.coordinates)
    write_csv(
        out_dir / "map_coords.csv",
        ["epoch", "date", "x", "y", "z"],
        [(i + 1, date, padded[i, 0], padded[i, 1], padded[i, 2])
         for i, date in enumerate(series.start_dates)],
    )
    fidelity = step_fidelity(full.coordinates, np.diagonal(sim, 1),
                             [d for d in (1, 2, 3, 4) if d < n])
    n_clipped, clipped_mass = _clipped(sim)
    write_json(
        out_dir / "map_meta.json",
        {
            "eigenvalues": [float(v) for v in embedding.eigenvalues],
            "n_clipped": n_clipped,
            "clipped_mass": clipped_mass,
            "dimension_fidelity": {str(d): float(v) for d, v in fidelity},
        },
    )
    return embedding


def write_surface(grid, path: Path) -> None:
    """One CSV row per (k, epsilon) grid point, in grid order."""
    write_csv(
        path,
        ["k", "epsilon", "sigma_d_intra", "mean_d_intra", "n_inits"],
        [(g.k, g.epsilon, g.sigma_d_intra, g.mean_d_intra, g.n_inits) for g in grid],
    )


def write_fit(model, embedding, path: Path, prefix: str) -> list[Path]:
    """The one writer of a fitted state model; returns the paths it writes, in order.

    ``path`` gets the model's JSON and ``<stem>_avg_corr.npz`` beside it the
    per-state average matrices.  The plot CSVs go beside them as well:
    ``<prefix>coords.csv`` (the map with each epoch's state),
    ``<prefix>transitions.csv`` and ``<prefix>state_avg_corr_S<s>.csv`` for
    s = 1..k; one with s > k, left by a fit with more states, is removed.
    A state sequence that does not match the map is a ValueError and an
    average that is not exactly symmetric a NumericError, before any write.
    """
    n = embedding.coordinates.shape[0]
    if len(model.state_of) != n:
        raise ValueError(f"{len(model.state_of)} states for {n} embedded epochs")
    for s, avg in enumerate(model.avg_corr_matrix, start=1):
        if not np.array_equal(avg, avg.T):
            raise NumericError(f"state S{s} average matrix is not exactly symmetric")
    out = path.parent
    out.mkdir(parents=True, exist_ok=True)
    write_json(path, {
        "k": model.k, "epsilon": model.epsilon, "state_of": [int(s) for s in model.state_of],
        "state_mean_corr": [float(v) for v in model.state_mean_corr],
        "transition_counts": [[int(c) for c in row] for row in model.transition_counts],
        "labels": list(model.labels), "epoch_dates": list(model.epoch_dates)})
    sidecar = path.with_name(path.stem + "_avg_corr.npz")
    save_arrays(sidecar, avg_corr=np.stack(model.avg_corr_matrix))
    coords, transitions = out / f"{prefix}coords.csv", out / f"{prefix}transitions.csv"
    padded, dates = _xyz(embedding.coordinates), model.epoch_dates or [""] * n
    write_csv(coords, ["epoch", "date", "x", "y", "z", "state"],
              [(i + 1, dates[i], *padded[i], int(model.state_of[i])) for i in range(n)])
    write_csv(transitions, ["from", "to", "count"],
              [(a + 1, b + 1, int(model.transition_counts[a, b]))
               for a in range(model.k) for b in range(model.k)])
    written = [path, sidecar, coords, transitions]
    header = ["label"] + list(model.labels)
    for s, avg in enumerate(model.avg_corr_matrix, start=1):
        written.append(out / f"{prefix}state_avg_corr_S{s}.csv")
        write_csv(written[-1], header, zip(model.labels, _mirrored_rows(avg), strict=True))
    per_state = re.compile(rf"{re.escape(prefix)}state_avg_corr_S([1-9][0-9]*)\.csv")
    for old in out.iterdir():
        match = per_state.fullmatch(old.name)
        if match and int(match[1]) > model.k:
            old.unlink()
    return written


def read_state_of(path: str | Path) -> np.ndarray:
    """The per-epoch states of a model that ``write_fit`` wrote: the one reader of its JSON.

    A file that is not a JSON object holding a non-empty list of integers
    >= 1 under ``state_of`` is a DataError.
    """
    raw = read_json(path)
    if not isinstance(raw, dict) or "state_of" not in raw:
        raise DataError(f"{path} is not a state model: no 'state_of' in a JSON object")
    states = raw["state_of"]
    if not (isinstance(states, list) and states
            and all(type(s) is int and s >= 1 for s in states)):
        raise DataError(f"{path}: 'state_of' is not a non-empty list of integers >= 1")
    return np.array(states, dtype=int)


def write_displacement(stock_states, sector_states, path: Path):
    """Stock-vs-sector state displacement histogram; returns the report."""
    report = displacement(stock_states, sector_states)
    write_json(path, {"histogram": {str(d): c for d, c in report.histogram.items()},
                      "max_abs_displacement": report.max_abs_displacement,
                      "n_epochs": report.n_epochs})
    return report


def write_trajectory_report(reports, failures: dict[str, str], path: Path) -> None:
    """Catalog classification: one payload per event plus the failed events."""
    write_json(path, {"events": [trajectory_report_payload(r) for r in reports],
                      "failures": failures})


def rmt_report_payload(spec: WishartSpec, bins: int, epsilon: float = 0.0) -> dict:
    """A sampled Wishart ensemble compared with the analytic law, JSON-safe."""
    _check_bins(bins)  # before the ensemble is sampled
    eigenvalues = pooled_eigenvalues(spec, epsilon=epsilon)
    density = spectrum_from_eigenvalues(eigenvalues, bins=bins)
    return {
        "N": spec.N,
        "T": spec.T,
        "Q": spec.Q,
        "realizations": spec.ensemble_size,
        "support": [float(v) for v in mp_support(spec.Q, spec.sigma2)],
        "l1_to_analytic": float(l1_to_analytic(density, spec.Q, spec.sigma2)),
        "outside_support_fraction": float(outside_support_fraction(
            eigenvalues, spec.Q, sigma2=spec.sigma2)),
        "zero_fraction": float(density.zero_fraction),
    }


# --------------------------------------------------------------------------
# stage implementations


@dataclass
class _Run:
    """The state one run_pipeline call keeps between its stages; nothing of it is written.

    Stages share values only through their files: each stage reads its
    declared input files itself.  ``names`` holds each configured path's
    manifest name, from ``_portable_names``.  ``digests`` maps a file to its
    sha256 hex string: a later stage reading a file, or the freshness check,
    reuses the digest taken when the file was written, first read or read
    ahead by ``prefetch``.
    """

    out: Path
    workers: int
    names: dict[Path, str | None] = field(default_factory=dict)
    digests: dict[Path, str] = field(default_factory=dict)

    def digest(self, path: Path) -> str:
        """A file's sha256 hex string, hashed at most once per run unless a stage rewrites it."""
        if path not in self.digests:
            self.digests[path] = sha256_file(path)
        return self.digests[path]

    def prefetch(self, pool: ThreadPoolExecutor | None, paths: Iterable[Path]) -> None:
        """Hash each existing file of ``paths`` that has no digest yet on ``pool``, largest first.

        Returns once every digest is taken.  A file that cannot be stat'ed or
        read gets none: the stage or check that needs it hashes it inline
        and raises there.  Without a pool (one worker) nothing is done.
        """
        if pool is None:
            return
        sizes = {}
        for path in paths:
            if path not in self.digests:
                with suppress(OSError):  # a file that cannot be stat'ed is not read ahead
                    sizes[path] = path.stat().st_size
        order = sorted(sizes, key=sizes.__getitem__, reverse=True)
        for path, value in zip(order, pool.map(_sha256_or_none, order)):
            if value is not None:
                self.digests[path] = value

    def name(self, path: Path) -> str:
        """The manifest name of a configured path (see ``_portable_names``) or of ``out / name``."""
        if path in self.names:
            return self.names[path] or str(path)
        return path.relative_to(self.out).as_posix()


def _sha256_or_none(path: Path) -> str | None:
    """sha256 of a file, or None when it cannot be read."""
    try:
        return sha256_file(path)
    except OSError:
        return None


def _stage_ingest(c: Mapping, run: _Run) -> list[Path]:
    path = run.out / PANEL
    write_panel(c["prices"], c["max_gap"], path)
    return [path, run.out / f"{PANEL}.meta.json"]


def _stage_corr(c: Mapping, run: _Run) -> list[Path]:
    path = run.out / "corr_raw.npz"
    returns = log_returns(load_panel(c[PANEL]))
    save_epoch_correlations(returns, EpochSpec(c["window"], c["shift"]), path)
    return [path]


def _stage_states(c: Mapping, run: _Run) -> list[Path]:
    out, workers = run.out, run.workers
    k, epsilon, n_inits, seed, dim = c["k"], c["epsilon"], c["n_inits"], c["seed"], c["mds_dim"]
    series = load_series(c["corr_raw.npz"])
    for key, k_list in (("mds_dim", []), ("k_range", c["k_range"]), ("k", [k] if k else [])):
        _check_key(key, _check_fit, series.n_epochs, k_list, dim)
    # each epsilon's mds_dim-axis map, built once: the map files give epsilon 0,
    # the grid adds the others and the fit reads the chosen one
    maps = {0.0: write_map(series, dim, out, workers)}
    grid = optimize_over_grid(series, c["k_range"], c["epsilon_grid"],
                              n_inits, seed, dim, workers, maps)
    write_surface(grid, out / "surface.csv")
    best_k, best_eps = select_optimum(grid, k_min=c["k_min"])
    chosen_k = k if k > 0 else best_k
    chosen_eps = epsilon if epsilon >= 0 else best_eps
    write_json(out / "selected.json",
               {"grid_optimum": {"k": best_k, "epsilon": best_eps, "k_min": c["k_min"]},
                "fitted": {"k": chosen_k, "epsilon": chosen_eps,
                           "pinned": bool(k > 0 or epsilon >= 0)}})
    # a pinned epsilon off the grid has no map yet, and fit_series builds it
    model, _, embedding = fit_series(series, chosen_k, chosen_eps, n_inits, seed,
                                     dim, workers, embedding=maps.get(chosen_eps))
    return ([out / "map_coords.csv", out / "map_meta.json", out / "surface.csv",
             out / "selected.json"] + write_fit(model, embedding, out / "model.json", "states_"))


def _stage_sectors(c: Mapping, run: _Run) -> list[Path]:
    out, sector_k, sector_epsilon = run.out, c["sector_k"], c["sector_epsilon"]
    epochs = load_series(c["corr_raw.npz"])
    _check_key("sector_k", _check_fit, epochs.n_epochs, [sector_k] if sector_k else [],
               c["mds_dim"])
    series = sector_series(epochs, load_sector_map(c["sectors"]))
    fitted = read_json(c["selected.json"])["fitted"]
    k = sector_k if sector_k > 0 else int(fitted["k"])
    epsilon = sector_epsilon if sector_epsilon >= 0 else float(fitted["epsilon"])
    model, _, embedding = fit_series(series, k, epsilon, c["n_inits"], c["seed"], c["mds_dim"],
                                     run.workers)
    written = write_fit(model, embedding, out / "sector_model.json", "sectors_")
    write_displacement(read_state_of(c["model.json"]), model.state_of, out / "displacement.json")
    return written + [out / "displacement.json"]


def _stage_trajectory(c: Mapping, run: _Run) -> list[Path]:
    out = run.out
    returns = log_returns(load_panel(c[PANEL]))
    catalog = load_event_catalog(c["events"])
    reports, failures = classify_catalog(
        returns, catalog, threshold=c["threshold"], width_days=c["width_days"],
        epsilon=c["trajectory_epsilon"], spec=EpochSpec(c["window"], c["shift"]),
        workers=run.workers,
    )
    write_trajectory_report(reports, failures, out / "trajectory_report.json")
    write_csv(
        out / "trajectory_table.csv",
        ["name", "start_date", "end_date", "var_x", "var_y", "var_z",
         "var_ratio", "classification"],
        [(r.name, r.start_date, r.end_date, r.var_x, r.var_y, r.var_z,
          r.var_ratio, r.classification) for r in reports],
    )
    return [out / "trajectory_report.json", out / "trajectory_table.csv"]


def _stage_rmt(c: Mapping, run: _Run) -> list[Path]:
    n_stocks = load_series(c["corr_raw.npz"]).n_labels
    spec = WishartSpec(N=n_stocks, T=c["window"],
                       ensemble_size=c["rmt_realizations"], seed=c["seed"])
    write_json(run.out / "rmt_report.json", rmt_report_payload(spec, c["rmt_bins"]))
    return [run.out / "rmt_report.json"]


class _Stage(NamedTuple):
    """A stage: its function, its config keys (its params) and its input files.

    An input named in ``PipelineConfig._PATHS`` is that configured path; any
    other is a file in the output dir.  The function is called with one
    read-only mapping of the keys' values and the inputs' paths, so a stage
    reads nothing its manifest key does not cover.
    """

    name: str
    run: Callable
    keys: tuple[str, ...]
    inputs: tuple[str, ...]


_EPOCHS = ("window", "shift")
# in run order; params keep this key order in the manifest
_STAGES = (
    _Stage("ingest", _stage_ingest, ("max_gap",), ("prices",)),
    _Stage("corr", _stage_corr, _EPOCHS, (PANEL,)),
    _Stage("states", _stage_states,
           (*_EPOCHS, "k_range", "epsilon_grid", "n_inits", "seed", "mds_dim", "k_min", "k",
            "epsilon"), ("corr_raw.npz",)),
    _Stage("sectors", _stage_sectors,
           (*_EPOCHS, "sector_k", "sector_epsilon", "n_inits", "seed", "mds_dim"),
           ("sectors", "corr_raw.npz", "selected.json", "model.json")),
    _Stage("trajectory", _stage_trajectory,
           (*_EPOCHS, "threshold", "width_days", "trajectory_epsilon"), (PANEL, "events")),
    _Stage("rmt", _stage_rmt, ("window", "rmt_realizations", "seed", "rmt_bins"),
           ("corr_raw.npz",)),
)
# why a stage does not run while this path input is empty
_UNCONFIGURED = {"sectors": "no sector map configured", "events": "no event catalog configured"}


def _params(stage: _Stage, cfg: PipelineConfig) -> dict:
    """A stage's manifest params: the current values of its config keys."""
    return {key: getattr(cfg, key) for key in stage.keys}


def _run_stage(stage: _Stage, cfg: PipelineConfig, run: _Run, prior: dict,
               pool: ThreadPoolExecutor | None) -> dict:
    """Run one stage, or skip it when ``prior`` shows the same key and fresh outputs."""
    params = _params(stage, cfg)
    paths = {name: Path(getattr(cfg, name)) if name in cfg._PATHS else run.out / name
             for name in stage.inputs}
    for path in paths.values():
        if not path.exists():
            raise DataError(f"stage '{stage.name}' input {path} does not exist; "
                            "rerun with --force to rebuild the tree")
    input_hashes = {run.name(path): run.digest(path) for path in paths.values()}
    key = _stage_key(input_hashes, params)
    if (prior.get("key") == key and prior.get("status") in ("ok", "skipped")
            and _outputs_fresh(prior, run)):
        status, outputs = "skipped", prior["outputs"]
    else:
        # the digest of each file the stage writes is taken just after the
        # write, and serves the later stages that read the file
        written = stage.run(MappingProxyType({**params, **paths}), run)
        for path in written:
            run.digests.pop(path, None)  # taken before the stage rewrote the file
        run.prefetch(pool, written)
        status, outputs = "ok", {run.name(p): run.digest(p) for p in written}
    return {"status": status, "key": key, "inputs": input_hashes, "params": params,
            "outputs": outputs}


def _stage_key(input_hashes: dict[str, str], params: dict) -> str:
    blob = json.dumps({"inputs": input_hashes, "params": params}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _outputs_fresh(entry: dict, run: _Run) -> bool:
    """A prior entry records outputs, and every one of them is unchanged."""
    outputs = entry.get("outputs", {})
    return bool(outputs) and all((run.out / rel).exists() and run.digest(run.out / rel) == digest
                                 for rel, digest in outputs.items())


def _prior_files(cfg: PipelineConfig, run: _Run, previous: dict) -> list[Path]:
    """The files a rerun is likely to hash: the configured inputs, and each output of a
    prior entry that ran or was skipped with the current params.

    A stage's other inputs are outputs of the stages before it, so they are
    listed with those stages' entries.
    """
    files = [Path(value) for value in (cfg.prices, cfg.sectors, cfg.events) if value]
    for stage in _STAGES:
        entry = previous.get(stage.name, {})
        if entry.get("status") in ("ok", "skipped") and entry.get("params") == _params(stage, cfg):
            files += [run.out / rel for rel in entry.get("outputs", {})]
    return files


def run_pipeline(cfg: PipelineConfig, force: bool = False,
                 workers: int = 1) -> tuple[int, dict]:
    """Run every configured stage; returns (exit code, manifest).

    The manifest is also written to ``<out_dir>/manifest.json``.  A failing
    stage records its error, halts everything downstream, and maps to the
    exit code of its error family (``errors.exit_code``: 2 data or an output
    that cannot be written, 3 numeric, 1 any other exception, whose type
    prefixes its error and whose traceback also goes to stderr).  ``workers``
    below 1 is a ValueError.  An earlier manifest that is not an object whose
    ``stages`` maps to objects, each with any ``inputs``, ``params`` and
    ``outputs`` an object, is a DataError before any file is hashed, unless
    ``force`` ignores it.

    With ``workers`` above 1 the digests are taken in batches on that many
    threads of one pool: before its first stage a rerun hashes the
    configured inputs and the files that ``_prior_files`` lists, and each
    stage that runs hashes its outputs right after it writes them.  The run
    waits for each batch, so every digest it keeps is a string.  With one
    worker every digest is taken inline, when it is needed.  The digests,
    and so the manifest, are the same at any worker count.
    """
    _check_workers(workers)
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous = {}
    if manifest_path.exists() and not force:
        prior = read_json(manifest_path)
        previous = prior.get("stages", {}) if isinstance(prior, dict) else None
        if not (isinstance(previous, dict) and all(
                isinstance(entry, dict) and all(isinstance(entry.get(part, {}), dict)
                                                for part in ("inputs", "params", "outputs"))
                for entry in previous.values())):
            raise DataError(f"{manifest_path} is not a manifest of stage objects; "
                            "rerun with --force")
    run = _Run(out, workers, names=_portable_names(cfg, out))
    manifest: dict = {"config": cfg.as_manifest_dict(run.names), "stages": {}}
    code = 0
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        if pool is not None and previous:
            run.prefetch(pool, _prior_files(cfg, run, previous))
        for stage in _STAGES:
            unset = [name for name in stage.inputs
                     if name in cfg._PATHS and not getattr(cfg, name)]
            if code:
                entry = {"status": "halted", "reason": "an upstream stage failed"}
            elif unset:
                entry = {"status": "not configured", "reason": _UNCONFIGURED[unset[0]]}
            else:
                try:
                    entry = _run_stage(stage, cfg, run, previous.get(stage.name, {}), pool)
                except Exception as exc:  # noqa: BLE001 - any failure still ends in a manifest
                    code = exit_code(exc)
                    if code == 1:
                        traceback.print_exc()
                    error = str(exc) if code > 1 else f"{type(exc).__name__}: {exc}"
                    entry = {"status": "failed", "error": error}
            manifest["stages"][stage.name] = entry
    write_json(manifest_path, manifest)
    return code, manifest
