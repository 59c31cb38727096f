"""Command-line interface.

Exit codes: 0 success, 1 usage or parameter error, 2 data error or an
output that cannot be written, 3 numeric failure.  If MARKETSTATES_OUT_DIR
is set, relative output paths are placed under it.  Grid syntaxes: integer
ranges '2..10' or '2,3,5'; float grids '0:0.1:1' (start:step:stop,
inclusive, each finite) or '0,0.5,0.9'.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .corrmat import EpochSpec, epoch_count, load_series, save_epoch_correlations
from .errors import EXIT_CODES, DataError, exit_code
from .geometry import _check_workers
from .ingest import load_panel, load_sector_map, log_returns
from .pipeline import (
    EPSILON_GRID,
    K_RANGE,
    PipelineConfig,
    parse_float_grid,
    parse_int_range,
    read_state_of,
    rmt_report_payload,
    run_pipeline,
    trajectory_report_payload,
    write_displacement,
    write_fit,
    write_map,
    write_panel,
    write_surface,
    write_trajectory_report,
)
from .rmt import WishartSpec
from .sector import SECTOR_PRESETS, sector_series
from .serialize import write_json
from .states import fit_series, optimize_over_grid, select_optimum
from .trajectory import (
    analyze_trajectory,
    classify_catalog,
    cut_window,
    load_event_catalog,
    window_from_dates,
)

_PREFIXES = {1: "bad parameter", 2: "data error", 3: "numeric failure"}  # by exit code
_DEFAULTS = PipelineConfig()  # every flag that mirrors a config key defaults to its value
_PIPELINE_WORKERS = ("threads for the distance kernel, the event windows and the file "
                     "digests (default 1)")


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _out_path(raw: str) -> Path:
    """``raw``, under MARKETSTATES_OUT_DIR when that is set and ``raw`` is relative.

    The parent directory is created; writers create their own output directories.
    """
    base = os.environ.get("MARKETSTATES_OUT_DIR", "")
    path = Path(raw)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _add_epoch_flags(parser) -> None:
    parser.add_argument("--window", type=int, default=_DEFAULTS.window,
                        help=f"return days per epoch (default {_DEFAULTS.window})")
    parser.add_argument("--shift", type=int, default=_DEFAULTS.shift,
                        help=f"days the epoch advances (default {_DEFAULTS.shift})")


def _add_fit_flags(parser) -> None:
    """The epoch archive and the k-means ensemble of a state search or fit."""
    parser.add_argument("--corr", required=True)
    parser.add_argument("--n-inits", type=int, default=_DEFAULTS.n_inits)
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    parser.add_argument("--dim", type=int, default=_DEFAULTS.mds_dim)


def _add_trajectory_flags(parser) -> None:
    parser.add_argument("--panel", required=True)
    parser.add_argument("--width", type=int,
                        help=f"price days per window (default {_DEFAULTS.width_days})")
    _add_epoch_flags(parser)
    parser.add_argument("--threshold", type=float, default=_DEFAULTS.threshold)
    parser.add_argument("--epsilon", type=float, default=_DEFAULTS.trajectory_epsilon)
    parser.add_argument("--out", required=True)


def _cmd_ingest(args) -> int:
    out = _out_path(args.out)
    panel = write_panel(args.prices, args.max_gap, out)
    print(f"kept {panel.n_stocks} stocks x {panel.n_days} days -> {out}")
    for name, reason in panel.dropped.items():
        print(f"dropped {name}: {reason}")
    return 0


def _cmd_corr(args) -> int:
    returns, spec = log_returns(load_panel(args.panel)), EpochSpec(args.window, args.shift)
    out = _out_path(args.out)
    save_epoch_correlations(returns, spec, out)
    n = returns.n_stocks
    print(f"{epoch_count(returns.n_returns, spec)} epochs of {n}x{n} matrices -> {out}")
    return 0


def _cmd_rmt_validate(args) -> int:
    spec = WishartSpec(N=args.n, T=args.t, sigma2=args.sigma2,
                       ensemble_size=args.realizations, seed=args.seed)
    report = rmt_report_payload(spec, args.bins, epsilon=args.epsilon)
    report["epsilon"] = args.epsilon
    for key in ("Q", "support", "l1_to_analytic", "outside_support_fraction", "zero_fraction"):
        print(f"{key}: {report[key]}")
    if args.out:
        write_json(_out_path(args.out), report)
    return 0


def _cmd_mds(args) -> int:
    series = load_series(args.corr)
    out_dir = _out_path(args.out_dir)
    write_map(series, args.dim, out_dir)
    print(f"{series.n_epochs} epochs -> {out_dir / 'map_coords.csv'}")
    return 0


def _cmd_states_optimize(args) -> int:
    k_range = parse_int_range(args.k_range)
    if k_range and max(k_range) < args.k_min:  # PipelineConfig.validate()'s rule
        raise ValueError(f"--k-min {args.k_min} exceeds every k in --k-range {args.k_range}")
    series = load_series(args.corr)
    surface = optimize_over_grid(series, k_range, parse_float_grid(args.epsilon_grid),
                                 args.n_inits, args.seed, dim=args.dim, workers=args.workers)
    out = _out_path(args.out)
    write_surface(surface, out)
    k, epsilon = select_optimum(surface, k_min=args.k_min)
    print(f"surface -> {out}")
    print(f"optimum (k >= {args.k_min}): k={k} epsilon={epsilon}")
    return 0


def _cmd_states_fit(args) -> int:
    model, _, embedding = fit_series(load_series(args.corr), args.k, args.epsilon,
                                     args.n_inits, args.seed, dim=args.dim)
    out = _out_path(args.out_dir) / "model.json"
    write_fit(model, embedding, out, "states_")
    occupancy = ", ".join(f"S{s + 1}={c}" for s, c in enumerate(model.occupancy()))
    print(f"model -> {out}")
    print(f"occupancy: {occupancy}")
    print(f"mean correlation by state: "
          + ", ".join(repr(round(v, 6)) for v in model.state_mean_corr))
    return 0


def _cmd_sectors_fit(args) -> int:
    if (args.k is None) != (args.epsilon is None):  # the group takes --k or --preset
        raise ValueError("--k needs --epsilon" if args.epsilon is None else "--epsilon needs --k")
    k, epsilon = SECTOR_PRESETS[args.preset] if args.preset else (args.k, args.epsilon)
    series = sector_series(load_series(args.corr), load_sector_map(args.sectors),
                           include_self_pairs=args.include_self_pairs)
    model, _, embedding = fit_series(series, k, epsilon, args.n_inits, args.seed, dim=args.dim)
    out = _out_path(args.out_dir) / "sector_model.json"
    write_fit(model, embedding, out, "sectors_")
    print(f"sector model ({len(model.labels)} sectors, k={k}, epsilon={epsilon}) -> {out}")
    return 0


def _cmd_sectors_displace(args) -> int:
    stock, sect = read_state_of(args.stock_model), read_state_of(args.sector_model)
    if len(stock) != len(sect):
        raise DataError(f"{args.stock_model} has {len(stock)} states, {args.sector_model} {len(sect)}")
    out = _out_path(args.out)
    report = write_displacement(stock, sect, out)
    for d in sorted(report.histogram):
        print(f"d={d:+d}: {report.histogram[d]} epochs")
    print(f"report -> {out}")
    return 0


def _cmd_trajectory_catalog(args) -> int:
    reports, failures = classify_catalog(
        log_returns(load_panel(args.panel)), load_event_catalog(args.events),
        threshold=args.threshold, width_days=args.width, epsilon=args.epsilon,
        spec=EpochSpec(args.window, args.shift), workers=args.workers)
    write_trajectory_report(reports, failures, _out_path(args.out))
    for report in reports:
        print(f"{report.name}: var_ratio={report.var_ratio:.4f} {report.classification}")
    for name, message in failures.items():
        print(f"{name}: FAILED ({message})", file=sys.stderr)
    return 0


def _cmd_trajectory_window(args) -> int:
    if args.start is not None and args.width is not None:
        raise ValueError("--width does not combine with --start; the span sets the window")
    if (args.start is None) != (args.end is None):  # the group takes --center or --start
        raise ValueError("--end needs --start" if args.start is None else "--start needs --end")
    returns, spec = log_returns(load_panel(args.panel)), EpochSpec(args.window, args.shift)
    if args.start is not None:
        window = window_from_dates(returns, args.start, args.end, name=args.name, spec=spec)
    else:
        width = _DEFAULTS.width_days if args.width is None else args.width
        window = cut_window(returns, args.center, width_days=width, name=args.name, spec=spec)
    report = analyze_trajectory(window, threshold=args.threshold, epsilon=args.epsilon, dim=args.dim)
    write_json(_out_path(args.out), trajectory_report_payload(report))
    print(f"{report.name}: {window.n_epochs} epochs, "
          f"var_ratio={report.var_ratio:.4f} -> {report.classification}")
    return 0


def _print_stages(manifest: dict) -> None:
    """One line per stage, ``name: status``, then why it failed or did not run."""
    for name, entry in manifest["stages"].items():
        detail = entry.get("error") or entry.get("reason") or ""
        print(f"{name}: {entry['status']}" + (f" ({detail})" if detail else ""))


def _cmd_run(args) -> int:
    cfg = PipelineConfig.from_file(args.config)
    if args.out_dir:
        cfg.out_dir = str(_out_path(args.out_dir))
    code, manifest = run_pipeline(cfg, force=args.force, workers=args.workers)
    _print_stages(manifest)
    print(f"manifest -> {Path(cfg.out_dir) / 'manifest.json'}")
    return code


def _cmd_demo(args) -> int:
    from .demo import run_demo

    out_dir = args.out_dir or os.environ.get("MARKETSTATES_OUT_DIR") or "demo_out"
    code, manifest = run_demo(out_dir, workers=args.workers, force=args.force)
    _print_stages(manifest)
    print(f"artifacts under {out_dir}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="marketstates", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load prices, apply the continuity policy, save a panel archive")
    p.add_argument("--prices", required=True)
    p.add_argument("--max-gap", type=int, default=_DEFAULTS.max_gap,
                   help="max consecutive missing prices before a ticker is dropped")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("corr", help="epoch correlation matrices for a saved panel")
    p.add_argument("--panel", required=True)
    _add_epoch_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("rmt-validate",
                       help="sample a Wishart ensemble and compare to the analytic law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--realizations", type=int, default=_DEFAULTS.rmt_realizations)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--bins", type=int, default=_DEFAULTS.rmt_bins)
    p.add_argument("--out", default="")
    p.set_defaults(func=_cmd_rmt_validate)

    p = sub.add_parser("mds", help="map a correlation archive to low-dimension coordinates")
    p.add_argument("--corr", required=True)
    p.add_argument("--dim", type=int, default=_DEFAULTS.mds_dim)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("states", help="market-state search and fit")
    states_sub = p.add_subparsers(dest="states_command", required=True)
    q = states_sub.add_parser("optimize", help="sigma_d_intra over a (k, epsilon) grid")
    _add_fit_flags(q)
    q.add_argument("--k-range", default=K_RANGE)
    q.add_argument("--epsilon-grid", default=EPSILON_GRID)
    q.add_argument("--k-min", type=int, default=_DEFAULTS.k_min)
    q.add_argument("--workers", type=int, default=1)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_states_optimize)
    q = states_sub.add_parser("fit", help="fit the state model at one operating point")
    _add_fit_flags(q)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--epsilon", type=float, required=True)
    q.add_argument("--out-dir", required=True)
    q.set_defaults(func=_cmd_states_fit)

    p = sub.add_parser("sectors", help="sector-level states and displacement")
    sectors_sub = p.add_subparsers(dest="sectors_command", required=True)
    q = sectors_sub.add_parser("fit", help="fit sector-level states")
    _add_fit_flags(q)
    q.add_argument("--sectors", required=True, help="ticker,sector CSV")
    point = q.add_mutually_exclusive_group(required=True)
    point.add_argument("--k", type=int, help="states, with --epsilon")
    point.add_argument("--preset", choices=sorted(SECTOR_PRESETS))
    q.add_argument("--epsilon", type=float)
    q.add_argument("--include-self-pairs", action="store_true",
                   help="keep i=j pairs in intra-sector averages")
    q.add_argument("--out-dir", required=True)
    q.set_defaults(func=_cmd_sectors_fit)
    q = sectors_sub.add_parser("displace", help="stock-vs-sector state displacement histogram")
    q.add_argument("--stock-model", required=True)
    q.add_argument("--sector-model", required=True)
    q.add_argument("--out", required=True)
    q.set_defaults(func=_cmd_sectors_displace)

    p = sub.add_parser("trajectory", help="event-window trajectory analysis")
    trajectory_sub = p.add_subparsers(dest="trajectory_command", required=True)
    q = trajectory_sub.add_parser("window", help="classify one window, mapped in one thread")
    _add_trajectory_flags(q)
    window = q.add_mutually_exclusive_group(required=True)
    window.add_argument("--center", help="event day (window midpoint)")
    window.add_argument("--start", help="first window day (with --end; not with --width)")
    q.add_argument("--end", help="last window day (with --start)")
    q.add_argument("--name", default="")
    q.add_argument("--dim", type=int, default=3, help="map axes (default 3)")
    q.set_defaults(func=_cmd_trajectory_window)
    q = trajectory_sub.add_parser("catalog", help="classify each window of an events CSV")
    _add_trajectory_flags(q)
    q.add_argument("--events", required=True, help="name,center_date CSV")
    q.add_argument("--workers", type=int, default=1)
    q.set_defaults(func=_cmd_trajectory_catalog, width=_DEFAULTS.width_days)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--force", action="store_true", help="rerun stages even if up to date")
    p.add_argument("--workers", type=int, default=1, help=_PIPELINE_WORKERS)
    p.add_argument("--out-dir", default="", help="override the config's output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("demo", help="generate the bundled synthetic market and run everything")
    p.add_argument("--out-dir", default="")
    p.add_argument("--workers", type=int, default=1, help=_PIPELINE_WORKERS)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        _check_workers(getattr(args, "workers", 1))  # before any subcommand's work
        return args.func(args)
    except (*EXIT_CODES, ValueError) as exc:
        code = exit_code(exc)
        print(f"{_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code


def entrypoint() -> None:
    raise SystemExit(main())
