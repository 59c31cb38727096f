"""Pipeline orchestration: flat-file config, staged runs, and a hash manifest.

A run executes up to seven stages in dependency order — ingest, corr, mds,
states, sectors, trajectory, rmt — each writing its artifacts under the
output directory plus a manifest entry (input hashes, parameters, output
hashes).  A stage whose inputs, parameters, and outputs all hash the same as
the previous run is skipped, so reruns are cheap and `--force` is explicit.
Worker counts never appear in artifacts: a run is byte-reproducible.  Each
artifact has one writer here, which the CLI subcommands call as well.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .corrmat import EpochCorrelationSeries, EpochSpec, epoch_correlations
from .errors import DataError, NumericError
from .geometry import Embedding, classical_mds, embed_epochs, similarity_matrix, step_fidelity
from .ingest import (
    ContinuityPolicy,
    PricePanel,
    load_panel,
    load_prices,
    load_sector_map,
    log_returns,
    save_panel,
)
from .rmt import (
    WishartSpec,
    l1_to_analytic,
    outside_support_fraction,
    pooled_eigenvalues,
    spectrum_from_eigenvalues,
)
from .sector import displacement, sector_series
from .serialize import (
    load_arrays,
    read_json,
    save_arrays,
    save_state_model,
    sha256_file,
    write_csv,
    write_json,
)
from .states import fit_series, optimize_over_grid, select_optimum
from .trajectory import classify_catalog, load_event_catalog

STAGE_ORDER = ("ingest", "corr", "mds", "states", "sectors", "trajectory", "rmt")


def parse_int_range(text: str) -> list[int]:
    """Integer list syntax: '4', '2..10' (inclusive), or '2,3,5'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty range {text!r}")
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",") if part.strip()]
        return [int(text)]
    except ValueError as exc:
        raise ValueError(f"bad integer range {text!r}: {exc}") from None


def parse_float_grid(text: str) -> list[float]:
    """Float list syntax: '0.5', 'start:step:stop' (inclusive), or '0,0.5,0.9'."""
    text = text.strip()
    try:
        if ":" in text:
            start, step, stop = (float(part) for part in text.split(":"))
            if step <= 0 or stop < start:
                raise ValueError("need step > 0 and stop >= start")
            count = int(np.floor((stop - start) / step + 1e-9)) + 1
            return [float(v) for v in np.round(start + step * np.arange(count), 10)]
        if "," in text:
            return [float(part) for part in text.split(",") if part.strip()]
        return [float(text)]
    except ValueError as exc:
        raise ValueError(f"bad float grid {text!r}: {exc}") from None


@dataclass
class PipelineConfig:
    """Flat key=value configuration for a full pipeline run."""

    prices: str = ""
    sectors: str = ""
    events: str = ""
    out_dir: str = "out"
    max_gap: int = 2
    window: int = 20
    shift: int = 1
    epsilon_grid: list[float] = field(default_factory=lambda: [round(0.1 * i, 10) for i in range(10)])
    k_range: list[int] = field(default_factory=lambda: list(range(2, 9)))
    n_inits: int = 10
    seed: int = 0
    mds_dim: int = 3
    k_min: int = 4
    k: int = 0  # 0 means "use the grid optimum"
    epsilon: float = -1.0  # negative means "use the grid optimum"
    sector_k: int = 0  # 0 means "reuse the stock-level choice"
    sector_epsilon: float = -1.0
    threshold: float = 0.4
    width_days: int = 125
    trajectory_epsilon: float = 0.0
    rmt_realizations: int = 50
    rmt_bins: int = 100

    _PARSERS = {
        "max_gap": int, "window": int, "shift": int, "n_inits": int, "seed": int,
        "mds_dim": int, "k_min": int, "k": int, "sector_k": int,
        "rmt_realizations": int, "rmt_bins": int, "width_days": int,
        "epsilon": float, "sector_epsilon": float, "threshold": float,
        "trajectory_epsilon": float,
        "epsilon_grid": parse_float_grid, "k_range": parse_int_range,
    }

    @classmethod
    def from_mapping(cls, mapping: dict[str, str], base: "PipelineConfig | None" = None) -> "PipelineConfig":
        config = base or cls()
        known = {f.name for f in fields(cls)}
        for key, value in mapping.items():
            if key not in known:
                raise DataError(f"unknown config key {key!r}")
            parser = cls._PARSERS.get(key, str)
            try:
                config = replace(config, **{key: parser(value)})
            except ValueError as exc:
                raise DataError(f"config key {key!r}: {exc}") from None
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise DataError(f"cannot read config {path}: {exc}") from exc
        mapping: dict[str, str] = {}
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    def validate(self) -> None:
        if not self.prices:
            raise DataError("config needs a 'prices' path")
        for label, candidate in (("prices", self.prices), ("sectors", self.sectors),
                                 ("events", self.events)):
            if candidate and not Path(candidate).exists():
                raise DataError(f"{label} file {candidate!r} does not exist")
        if self.n_inits < 2:
            raise DataError("n_inits must be at least 2")

    def as_manifest_dict(self, out_dir: Path) -> dict:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in ("prices", "sectors", "events", "out_dir") and value:
                value = _portable_path(value, out_dir)
            payload[f.name] = value
        return payload


def _portable_path(path: str | Path, out_dir: Path) -> str:
    """Relative to the output dir when possible, so manifests are location-free."""
    try:
        return Path(path).resolve().relative_to(out_dir.resolve()).as_posix()
    except ValueError:
        return str(path)


def series_from_arrays(arrays: dict[str, np.ndarray]) -> EpochCorrelationSeries:
    """Rebuild an epoch correlation series from a saved array archive.

    The series holds ``arrays["values"]`` itself, not a copy.
    """
    try:
        stack = arrays["values"]
        labels = [str(s) for s in arrays["labels"]]
        starts = [str(s) for s in arrays["start_dates"]]
        ends = [str(s) for s in arrays["end_dates"]]
    except KeyError as exc:
        raise DataError(f"correlation archive is missing array {exc}") from exc
    epsilon = float(arrays["epsilon"]) if "epsilon" in arrays else 0.0
    return EpochCorrelationSeries.from_stack(labels, stack, starts, ends, epsilon)


def correlation_arrays(series: EpochCorrelationSeries) -> dict[str, np.ndarray]:
    return {
        "values": series.values_stack(),
        "labels": np.array(series.labels),
        "start_dates": np.array([m.start_date for m in series.matrices]),
        "end_dates": np.array([m.end_date for m in series.matrices]),
        "epsilon": np.array(series.epsilon),
    }


def _xyz(coords: np.ndarray) -> np.ndarray:
    """The first three map axes, zero-padded when the map has fewer."""
    padded = np.zeros((coords.shape[0], 3))
    padded[:, :min(coords.shape[1], 3)] = coords[:, :3]
    return padded


def emit_plot_data(model, embedding, out_dir: str | Path, prefix: str = "") -> list[Path]:
    """Plot-ready CSVs for a fitted model: the map, transitions, state averages."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = embedding.coordinates.shape[0]
    if len(model.state_of) != n:
        raise ValueError(f"{len(model.state_of)} states for {n} embedded epochs")
    padded = _xyz(embedding.coordinates)
    dates = model.epoch_dates or [""] * n
    coords_path = out_dir / f"{prefix}coords.csv"
    write_csv(
        coords_path,
        ["epoch", "date", "x", "y", "z", "state"],
        [
            (i + 1, dates[i], padded[i, 0], padded[i, 1], padded[i, 2], int(model.state_of[i]))
            for i in range(n)
        ],
    )
    transitions_path = out_dir / f"{prefix}transitions.csv"
    write_csv(
        transitions_path,
        ["from", "to", "count"],
        [
            (a + 1, b + 1, int(model.transition_counts[a, b]))
            for a in range(model.k)
            for b in range(model.k)
        ],
    )
    written = [coords_path, transitions_path]
    header = ["label"] + list(model.labels)
    for s, avg in enumerate(model.avg_corr_matrix, start=1):
        if not np.array_equal(avg, avg.T):
            raise NumericError(f"state S{s} average matrix is not exactly symmetric")
        path = out_dir / f"{prefix}state_avg_corr_S{s}.csv"
        rows = zip(model.labels, _mirrored_cells(avg), strict=True)
        write_csv(path, header, [[label, *cells] for label, cells in rows])
        written.append(path)
    return written


def _mirrored_cells(matrix: np.ndarray) -> list[list[str]]:
    """repr of every entry of a symmetric matrix, each off-diagonal value formatted once."""
    upper = np.triu_indices(matrix.shape[0])
    text = np.empty(matrix.shape, dtype=object)
    text[upper] = list(map(repr, matrix[upper].tolist()))
    text.T[upper] = text[upper]
    return text.tolist()


def trajectory_report_payload(report) -> dict:
    """JSON-safe row mirroring the published table columns."""
    ratio = report.var_ratio
    return {
        "name": report.name,
        "start_date": report.start_date,
        "end_date": report.end_date,
        "n_epochs": report.n_epochs,
        "var_x": report.var_x,
        "var_y": report.var_y,
        "var_z": report.var_z,
        "var_ratio": None if ratio != ratio else ratio,
        "classification": report.classification,
        "threshold": report.threshold,
        "epsilon": report.epsilon,
        "zero_variance": report.zero_variance,
        "axis_order_ok": report.axis_order_ok,
    }


# --------------------------------------------------------------------------
# artifact writers, shared by the pipeline stages and the CLI


def attach_sector_map(panel, sectors: str | Path) -> None:
    """Attach a ``ticker,sector`` file to a panel, restricted to its tickers."""
    mapping = load_sector_map(sectors)
    panel.sector_of = {t: mapping[t] for t in panel.tickers if t in mapping}


def write_panel(prices: str | Path, sectors: str | Path, max_gap: int, path: Path):
    """Load prices under the continuity policy, attach the sector map, save.

    Writes ``path`` and its ``.meta.json`` sidecar; returns the kept panel.
    """
    panel = load_prices(prices, ContinuityPolicy(max_consecutive_missing=max_gap))
    if sectors:
        attach_sector_map(panel, sectors)
    save_panel(panel, path)
    return panel


def write_map(stack: np.ndarray, dates: list[str], dim: int, out_dir: Path,
              workers: int = 1, maps: dict[float, Embedding] | None = None) -> list[Path]:
    """Classical MDS map of an epoch stack: coordinates plus eigenvalue and fidelity meta.

    ``dates`` labels the coordinate rows, one per epoch of ``stack``.  One
    eigendecomposition serves both: the ``dim``-axis map is the leading
    ``dim`` axes of the full map that the fidelity needs.  ``workers``
    threads run the dissimilarity kernel.  The ``dim``-axis map is also
    stored in ``maps`` under epsilon 0 when a dict is given.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    sim = similarity_matrix(stack, workers)
    full = classical_mds(sim, D=len(sim) - 1, warn=False)
    embedding = full.leading(dim)
    if maps is not None:
        maps[0.0] = embedding
    padded = _xyz(embedding.coordinates)
    write_csv(
        out_dir / "map_coords.csv",
        ["epoch", "date", "x", "y", "z"],
        [(i + 1, dates[i], padded[i, 0], padded[i, 1], padded[i, 2])
         for i in range(padded.shape[0])],
    )
    fidelity = step_fidelity(full.coordinates, [d for d in (1, 2, 3, 4) if d <= full.D])
    write_json(
        out_dir / "map_meta.json",
        {
            "eigenvalues": [float(v) for v in embedding.eigenvalues],
            "n_clipped": full.n_clipped,
            "clipped_mass": full.clipped_mass,
            "dimension_fidelity": {str(d): float(v) for d, v in fidelity},
        },
    )
    return [out_dir / "map_coords.csv", out_dir / "map_meta.json"]


def write_surface(surface, path: Path) -> None:
    """One CSV row per (k, epsilon) grid point, in grid order."""
    write_csv(
        path,
        ["k", "epsilon", "sigma_d_intra", "mean_d_intra", "n_inits"],
        [(g.k, g.epsilon, g.sigma_d_intra, g.mean_d_intra, g.n_inits) for g in surface.grid],
    )


def write_fit(model, embedding, path: Path, prefix: str) -> list[Path]:
    """A fitted state model at ``path`` plus its plot CSVs beside it; returns every path."""
    plots = emit_plot_data(model, embedding, path.parent, prefix=prefix)
    return save_state_model(model, path) + plots


def write_displacement(stock_states, sector_states, path: Path):
    """Stock-vs-sector state displacement histogram; returns the report."""
    report = displacement(stock_states, sector_states)
    write_json(
        path,
        {
            "histogram": {str(d): c for d, c in report.histogram.items()},
            "max_abs_displacement": report.max_abs_displacement,
            "n_epochs": report.n_epochs,
        },
    )
    return report


def write_trajectory_report(reports, failures: dict[str, str], path: Path) -> None:
    """Catalog classification: one payload per event plus the failed events."""
    write_json(path, {"events": [trajectory_report_payload(r) for r in reports],
                      "failures": failures})


def rmt_report_payload(spec: WishartSpec, bins: int, epsilon: float = 0.0) -> dict:
    """A sampled Wishart ensemble compared with the analytic law, JSON-safe."""
    eigenvalues = pooled_eigenvalues(spec, epsilon=epsilon)
    density = spectrum_from_eigenvalues(eigenvalues, bins=bins, Q=spec.Q, sigma2=spec.sigma2)
    return {
        "N": spec.N,
        "T": spec.T,
        "Q": spec.Q,
        "realizations": spec.ensemble_size,
        "support": [float(density.lambda_min), float(density.lambda_max)],
        "l1_to_analytic": float(l1_to_analytic(density, sigma2=spec.sigma2)),
        "outside_support_fraction": float(outside_support_fraction(
            eigenvalues, spec.Q, sigma2=spec.sigma2)),
        "zero_fraction": float(density.zero_fraction),
    }


# --------------------------------------------------------------------------
# stage implementations


@dataclass
class _Run:
    """The state one run_pipeline call keeps between its stages; nothing of it is written.

    ``digests`` holds one sha256 per file: a later stage reading a file, or
    the freshness check, reuses the digest taken when the file was written or
    first read.  ``maps`` holds each epsilon's mds_dim-axis map of the epoch
    stack, built once per call: the mds stage stores epsilon 0, the grid and
    the stock fit read and add to it.  It is keyed by the corr_raw.npz
    digest, so a rewritten archive starts empty, and holds no distance
    matrix.  ``panel`` is the panel the ingest stage parsed, under the digest
    of the panel.csv it wrote, until the corr stage takes it.
    """

    out: Path
    workers: int
    digests: dict[Path, str] = field(default_factory=dict)
    maps: dict[str, dict[float, Embedding]] = field(default_factory=dict)
    panel: tuple[str, PricePanel] | None = None

    def digest(self, path: Path) -> str:
        """sha256 of a file, hashed at most once in this run unless a stage rewrites it."""
        if path not in self.digests:
            self.digests[path] = sha256_file(path)
        return self.digests[path]

    def epoch_maps(self) -> dict[float, Embedding]:
        return self.maps.setdefault(self.digest(self.out / "corr_raw.npz"), {})

    def hand_over_panel(self, panel: PricePanel) -> None:
        """Keep the panel just written to panel.csv for the corr stage."""
        path = self.out / "panel.csv"
        self.digests.pop(path, None)  # a digest taken before this write is stale
        self.panel = (self.digest(path), panel)

    def take_panel(self) -> PricePanel:
        """The panel in panel.csv, parsed by ingest in this run if the file still holds it.

        The handed-over panel is released either way; without one, or when
        the file changed since, panel.csv is parsed.
        """
        handed, self.panel = self.panel, None
        path = self.out / "panel.csv"
        if handed is not None and handed[0] == self.digest(path):
            return handed[1]
        return load_panel(path)


def _stage_ingest(cfg: PipelineConfig, run: _Run) -> list[Path]:
    path = run.out / "panel.csv"
    run.hand_over_panel(write_panel(cfg.prices, cfg.sectors, cfg.max_gap, path))
    return [path, run.out / "panel.csv.meta.json"]


def _stage_corr(cfg: PipelineConfig, run: _Run) -> list[Path]:
    returns = log_returns(run.take_panel())
    series = epoch_correlations(returns, EpochSpec(cfg.window, cfg.shift))
    save_arrays(run.out / "corr_raw.npz", **correlation_arrays(series))
    return [run.out / "corr_raw.npz"]


def _stage_mds(cfg: PipelineConfig, run: _Run) -> list[Path]:
    arrays = load_arrays(run.out / "corr_raw.npz")
    dates = [str(s) for s in arrays["start_dates"]]
    return write_map(arrays["values"], dates, cfg.mds_dim, run.out, run.workers,
                     maps=run.epoch_maps())


def _stage_states(cfg: PipelineConfig, run: _Run) -> list[Path]:
    out, workers = run.out, run.workers
    arrays = load_arrays(out / "corr_raw.npz")
    series = series_from_arrays(arrays)
    maps = run.epoch_maps()
    surface = optimize_over_grid(
        arrays["values"], cfg.k_range, cfg.epsilon_grid,
        cfg.n_inits, cfg.seed, dim=cfg.mds_dim, workers=workers, maps=maps,
    )
    write_surface(surface, out / "surface.csv")
    best_k, best_eps = select_optimum(surface, k_min=cfg.k_min)
    chosen_k = cfg.k if cfg.k > 0 else best_k
    chosen_eps = cfg.epsilon if cfg.epsilon >= 0 else best_eps
    write_json(
        out / "selected.json",
        {
            "grid_optimum": {"k": best_k, "epsilon": best_eps, "k_min": cfg.k_min},
            "fitted": {"k": chosen_k, "epsilon": chosen_eps,
                       "pinned": bool(cfg.k > 0 or cfg.epsilon >= 0)},
        },
    )
    if chosen_eps not in maps:  # a pinned epsilon off the grid
        maps[chosen_eps] = embed_epochs(arrays["values"], chosen_eps, cfg.mds_dim, workers)
    model, _, embedding = fit_series(series, chosen_k, chosen_eps, cfg.n_inits, cfg.seed,
                                     embedding=maps[chosen_eps])
    return ([out / "surface.csv", out / "selected.json"]
            + write_fit(model, embedding, out / "model.json", "states_"))


def _stage_sectors(cfg: PipelineConfig, run: _Run) -> list[Path]:
    out = run.out
    sector_of = read_json(out / "panel.csv.meta.json").get("sector_of")
    if not sector_of:
        raise DataError("panel has no sector map; configure 'sectors'")
    series = sector_series(series_from_arrays(load_arrays(out / "corr_raw.npz")), sector_of)
    fitted = read_json(out / "selected.json")["fitted"]
    k = cfg.sector_k if cfg.sector_k > 0 else int(fitted["k"])
    epsilon = cfg.sector_epsilon if cfg.sector_epsilon >= 0 else float(fitted["epsilon"])
    model, _, embedding = fit_series(series, k, epsilon, cfg.n_inits, cfg.seed, cfg.mds_dim,
                                     run.workers)
    written = write_fit(model, embedding, out / "sector_model.json", "sectors_")
    stock_states = np.array(read_json(out / "model.json")["state_of"], dtype=int)
    write_displacement(stock_states, model.state_of, out / "displacement.json")
    return written + [out / "displacement.json"]


def _stage_trajectory(cfg: PipelineConfig, run: _Run) -> list[Path]:
    out = run.out
    panel = load_panel(out / "panel.csv")
    returns = log_returns(panel)
    catalog = load_event_catalog(cfg.events)
    reports, failures = classify_catalog(
        returns, catalog, threshold=cfg.threshold, width_days=cfg.width_days,
        epsilon=cfg.trajectory_epsilon, spec=EpochSpec(cfg.window, cfg.shift),
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


def _stage_rmt(cfg: PipelineConfig, run: _Run) -> list[Path]:
    out = run.out
    n_stocks = len(load_arrays(out / "corr_raw.npz", names=["labels"])["labels"])
    spec = WishartSpec(N=n_stocks, T=cfg.window,
                       ensemble_size=cfg.rmt_realizations, seed=cfg.seed)
    write_json(out / "rmt_report.json", rmt_report_payload(spec, cfg.rmt_bins))
    return [out / "rmt_report.json"]


@dataclass
class _Stage:
    name: str
    enabled: bool
    reason: str
    inputs: list[Path]
    params: dict
    run: object = None


def _plan(cfg: PipelineConfig, out: Path) -> list[_Stage]:
    """The stages of a run, each called with the config and the run's _Run."""
    epoch_params = {"window": cfg.window, "shift": cfg.shift}
    stages = [
        _Stage("ingest", True, "", [Path(cfg.prices)] + ([Path(cfg.sectors)] if cfg.sectors else []),
               {"max_gap": cfg.max_gap}, _stage_ingest),
        _Stage("corr", True, "", [out / "panel.csv"], dict(epoch_params), _stage_corr),
        _Stage("mds", True, "", [out / "corr_raw.npz"],
               {**epoch_params, "mds_dim": cfg.mds_dim},
               _stage_mds),
        _Stage("states", True, "", [out / "corr_raw.npz"],
               {**epoch_params, "k_range": cfg.k_range, "epsilon_grid": cfg.epsilon_grid,
                "n_inits": cfg.n_inits, "seed": cfg.seed, "mds_dim": cfg.mds_dim,
                "k_min": cfg.k_min, "k": cfg.k, "epsilon": cfg.epsilon},
               _stage_states),
        _Stage("sectors", bool(cfg.sectors), "no sector map configured",
               [out / "panel.csv.meta.json", out / "corr_raw.npz", out / "selected.json",
                out / "model.json"],
               {**epoch_params, "sector_k": cfg.sector_k, "sector_epsilon": cfg.sector_epsilon,
                "n_inits": cfg.n_inits, "seed": cfg.seed, "mds_dim": cfg.mds_dim},
               _stage_sectors),
        _Stage("trajectory", bool(cfg.events), "no event catalog configured",
               [out / "panel.csv"] + ([Path(cfg.events)] if cfg.events else []),
               {**epoch_params, "threshold": cfg.threshold, "width_days": cfg.width_days,
                "trajectory_epsilon": cfg.trajectory_epsilon}, _stage_trajectory),
        _Stage("rmt", True, "", [out / "corr_raw.npz"],
               {"window": cfg.window, "realizations": cfg.rmt_realizations,
                "seed": cfg.seed, "bins": cfg.rmt_bins}, _stage_rmt),
    ]
    return stages


def _hash_inputs(stage: _Stage, run: _Run) -> dict[str, str]:
    hashes = {}
    for path in stage.inputs:
        if not path.exists():
            raise DataError(f"stage '{stage.name}' input {path} does not exist")
        hashes[_portable_path(path, run.out)] = run.digest(path)
    return hashes


def _stage_key(input_hashes: dict[str, str], params: dict) -> str:
    blob = json.dumps({"inputs": input_hashes, "params": params}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _outputs_fresh(entry: dict, run: _Run) -> bool:
    outputs = entry.get("outputs", {})
    if not outputs:
        return False
    for rel, digest in outputs.items():
        path = run.out / rel
        if not path.exists() or run.digest(path) != digest:
            return False
    return True


def run_pipeline(cfg: PipelineConfig, force: bool = False,
                 workers: int = 1) -> tuple[int, dict]:
    """Run every configured stage; returns (exit code, manifest).

    The manifest is also written to ``<out_dir>/manifest.json``.  A failing
    stage records its error, halts everything downstream, and maps to the
    exit code of its error family (2 data, 3 numeric, 1 any other exception,
    whose traceback also goes to stderr).
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    previous = {}
    if manifest_path.exists() and not force:
        previous = read_json(manifest_path).get("stages", {})
    manifest: dict = {"config": cfg.as_manifest_dict(out), "stages": {}}
    run = _Run(out, workers)
    exit_code = 0
    failed = False
    for stage in _plan(cfg, out):
        if stage.name != "corr":
            run.panel = None  # ingest hands its panel to corr alone, even a skipped corr
        if failed:
            manifest["stages"][stage.name] = {"status": "halted",
                                              "reason": "an upstream stage failed"}
            continue
        if not stage.enabled:
            manifest["stages"][stage.name] = {"status": "not configured",
                                              "reason": stage.reason}
            continue
        try:
            input_hashes = _hash_inputs(stage, run)
            key = _stage_key(input_hashes, stage.params)
            prior = previous.get(stage.name, {})
            if (not force and prior.get("key") == key
                    and prior.get("status") in ("ok", "skipped")
                    and _outputs_fresh(prior, run)):
                manifest["stages"][stage.name] = {
                    "status": "skipped",
                    "key": key,
                    "inputs": input_hashes,
                    "params": stage.params,
                    "outputs": prior["outputs"],
                }
                continue
            before = set(run.digests)
            written = stage.run(cfg, run)
            for path in before.intersection(written):
                del run.digests[path]  # taken before the stage rewrote the file
            manifest["stages"][stage.name] = {
                "status": "ok",
                "key": key,
                "inputs": input_hashes,
                "params": stage.params,
                "outputs": {_portable_path(p, out): run.digest(p) for p in written},
            }
        except DataError as exc:
            manifest["stages"][stage.name] = {"status": "failed", "error": str(exc)}
            exit_code, failed = 2, True
        except NumericError as exc:
            manifest["stages"][stage.name] = {"status": "failed", "error": str(exc)}
            exit_code, failed = 3, True
        except Exception as exc:  # noqa: BLE001 - any failure still ends in a manifest
            traceback.print_exc()
            manifest["stages"][stage.name] = {"status": "failed",
                                              "error": f"{type(exc).__name__}: {exc}"}
            exit_code, failed = 1, True
    write_json(manifest_path, manifest)
    return exit_code, manifest
