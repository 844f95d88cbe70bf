"""Experiment runner.

Subcommands map to the core experiments: ``simulate`` (ensemble + one dense
path series), ``compare`` (inventory vs symmetric table), ``frontier``
(risk-aversion sweep), ``trading-curve`` (average inventory path), ``hjb``
(exact value function and approximation report), ``price-option`` (call
surface slices) and ``option-mm`` (option market-making summary).

Every run resolves its configuration from defaults, an optional config file
and ``--set section.key=value`` overrides (in that precedence order), writes
CSV artifacts named ``<subcommand>-<timestamp>-<seed>.csv`` next to a manifest
echoing the resolved configuration, and prints the written paths.  All
randomness flows from the single master seed, so artifact contents are
byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, apply_overrides, dump_manifest, load_config
from .heston import HestonParams, step_count
from .hjb import BlowupError, HjbConfig, compare_exact_vs_approx, solve_stock_hjb, write_grid_csv, write_report_csv
from .intensity import ArrivalParams
from .option_mm import FunctionalLattice, run_hedged_paths, run_joint_paths, write_lattice_csv
from .option_pricing import PricingConfig, StabilityError, default_nu_grid, default_s_grid, solve_call_grid, write_slice_csv
from .quotes import Frozen, InventorySV, MarketImpact, RiskNeutral, RiskParams, Symmetric
from .sim_engine import NonFiniteStateError, SimConfig, efficient_frontier, run_ensemble, run_path, trading_curve
from .table import write_table

ENV_OUTPUT_DIR = "HESTONMM_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (BlowupError, StabilityError, NonFiniteStateError)


def _heston(cfg: RunConfig) -> HestonParams:
    h = cfg["heston"]
    return HestonParams(theta=h["theta"], alpha=h["alpha"], xi=h["xi"],
                        rho=h["rho"], s0=h["s0"], nu0=h["nu0"])


def _arrival(cfg: RunConfig) -> ArrivalParams:
    return ArrivalParams(A=cfg.get("arrival", "a"), k=cfg.get("arrival", "k"))


def _risk(cfg: RunConfig) -> RiskParams:
    r = cfg["risk"]
    return RiskParams(gamma=r["gamma"], beta=r["beta"], eta=r["eta"])


def _sim_config(cfg: RunConfig, q0: int | None = None) -> SimConfig:
    s = cfg["sim"]
    return SimConfig(
        heston=_heston(cfg), arrival=_arrival(cfg), risk=_risk(cfg),
        T=s["t_horizon"], dt=s["dt"], q0=s["q0"] if q0 is None else q0,
        impact=s["impact"], scheme=s["scheme"], snapshot_stride=s["snapshot_stride"],
    )


def _policy(cfg: RunConfig, sim: SimConfig, name: str | None = None):
    """Closed-form policy ``name`` (default ``sim.policy``).

    ``symmetric`` is not built here: it needs the average spread of a pre-run,
    which ``_symmetric_prerun`` supplies.
    """
    name = name or cfg.get("sim", "policy")
    if name == "inventory":
        return InventorySV(sim.heston, sim.arrival, sim.risk, sim.T)
    if name == "impact":
        return MarketImpact(sim.heston, sim.arrival, sim.risk, sim.T,
                            variant=cfg.get("sim", "impact_variant"))
    if name == "risk_neutral":
        return RiskNeutral(sim.arrival, sim.risk)
    if name == "frozen":
        return Frozen()
    # config validation rejects unknown names, so reaching here is a bug
    raise LookupError(f"_policy cannot build policy {name!r}")


def _symmetric_prerun(cfg: RunConfig, sim: SimConfig, seed: int, n: int, threads: int):
    """Run the inventory book (``MarketImpact`` when ``sim.impact``) and return
    its ensemble with the ``Symmetric`` policy quoting its average spread.

    The pre-run uses the seed, path count and threads of the run it serves, so
    both books see the same draws.
    """
    base = run_ensemble(_policy(cfg, sim, "impact" if sim.impact else "inventory"),
                        sim, n, seed, threads=threads)
    return base, Symmetric(base.avg_spread)


def _configured_policy(cfg: RunConfig, sim: SimConfig, seed: int, n: int, threads: int):
    """The ``sim.policy`` book; ``symmetric`` comes from a same-seed pre-run."""
    if cfg.get("sim", "policy") == "symmetric":
        return _symmetric_prerun(cfg, sim, seed, n, threads)[1]
    return _policy(cfg, sim)


class ArtifactWriter:
    """Names, tracks and (on failure) removes output files."""

    def __init__(self, out_dir: Path, subcommand: str, seed: int):
        self.out_dir = out_dir
        self.stem = f"{subcommand}-{time.strftime('%Y%m%dT%H%M%S')}-{seed}"
        self.written: list[Path] = []

    def path(self, suffix: str = "", ext: str = ".csv") -> Path:
        name = self.stem + (f"-{suffix}" if suffix else "") + ext
        p = self.out_dir / name
        self.written.append(p)
        return p

    def cleanup(self) -> None:
        for p in self.written:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _write_rows(path: Path, header: list[str], columns) -> None:
    """The CLI's own tables; a name of their own lets a traced run time them."""
    write_table(path, header, columns)


def _cmd_simulate(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int, threads: int) -> None:
    sim = _sim_config(cfg)
    policy = _configured_policy(cfg, sim, seed, n, threads)
    stats = run_ensemble(policy, sim, n, seed, threads=threads)
    _write_rows(art.path(), ["seed", "profit", "q_T", "z", "avg_spread"],
                [np.arange(stats.n), stats.profits, stats.q_terminal, stats.z_terminal,
                 stats.spread_terminal])
    rec = run_path(policy, sim, seed, index=0)
    s, da, db = rec.series_s, rec.series_delta_a, rec.series_delta_b
    _write_rows(art.path("series"), ["t", "s", "p_a", "p_b", "q", "z"],
                [rec.times, s, np.where(np.isfinite(da), s + da, np.nan),
                 np.where(np.isfinite(db), s - db, np.nan), rec.series_q, rec.series_z])


def _cmd_compare(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int, threads: int) -> None:
    sim = _sim_config(cfg)
    inv, symmetric = _symmetric_prerun(cfg, sim, seed, n, threads)
    sym = run_ensemble(symmetric, sim, n, seed, threads=threads)
    _write_rows(
        art.path(),
        ["Strategy", "Average Spread", "Profit", "Std (Profit)", "q_T", "Std (q_T)"],
        zip(("Inventory", inv.avg_spread, inv.profit_mean, inv.profit_std, inv.q_mean, inv.q_std),
            ("Symmetric", sym.avg_spread, sym.profit_mean, sym.profit_std, sym.q_mean, sym.q_std)),
    )
    lo = min(inv.profits.min(), sym.profits.min())
    hi = max(inv.profits.max(), sym.profits.max())
    edges = np.linspace(lo, hi, 31)
    _write_rows(art.path("hist"), ["strategy", "bin_lo", "bin_hi", "count"],
                [np.array([["Inventory"], ["Symmetric"]]), edges[:-1], edges[1:],
                 np.stack([np.histogram(inv.profits, edges)[0], np.histogram(sym.profits, edges)[0]])])


def _cmd_frontier(cfg: RunConfig, art: ArtifactWriter, seed: int, threads: int) -> None:
    sim = _sim_config(cfg, q0=cfg.get("frontier", "q0"))
    points = efficient_frontier(sim, cfg.get("frontier", "gammas"), cfg.get("frontier", "n_paths"),
                                seed, threads=threads)
    _write_rows(
        art.path(),
        ["gamma", "variance", "expected_objective", "objective_se", "profit_mean"],
        zip(*[(p.gamma, p.variance_proxy, p.objective, p.objective_se, p.profit_mean)
              for p in points]),
    )


def _cmd_trading_curve(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int, threads: int) -> None:
    sim = _sim_config(cfg)
    policy = _configured_policy(cfg, sim, seed, n, threads)
    _write_rows(art.path(), ["t", "q_mean", "q_std"],
                trading_curve(policy, sim, n, seed, threads=threads))


def _cmd_hjb(cfg: RunConfig, art: ArtifactWriter, seed: int) -> None:
    h = cfg["hjb"]
    hcfg = HjbConfig(
        heston=_heston(cfg), arrival=_arrival(cfg), risk=_risk(cfg),
        T=cfg.get("sim", "t_horizon"), q_min=h["q_min"], q_max=h["q_max"],
        nu_lo=h["nu_lo"], nu_hi=h["nu_hi"], n_nu=h["n_nu"], n_time=h["n_time"],
        include_impact=h["include_impact"],
    )
    grid = solve_stock_hjb(hcfg)
    if not hcfg.include_impact:
        report = compare_exact_vs_approx(grid, nu_window=(h["gap_nu_lo"], h["gap_nu_hi"]))
        write_report_csv(report, art.path())
    write_grid_csv(grid, art.path("grid"))


def _pricing_config(cfg: RunConfig) -> PricingConfig:
    p = cfg["pricing"]
    heston = _heston(cfg)
    T = cfg.get("sim", "t_horizon")
    return PricingConfig(
        heston=heston, strike=p["strike"], T=T, eta_nu=p["eta_nu"],
        s_grid=tuple(default_s_grid(heston, T, p["n_s"])),
        nu_grid=tuple(default_nu_grid(heston, T, p["n_nu"])),
        n_time=p["n_time"],
    )


def _cmd_price_option(cfg: RunConfig, art: ArtifactWriter, seed: int) -> None:
    grid = solve_call_grid(_pricing_config(cfg))
    write_slice_csv(grid, art.path(), t_values=[0.0])


def _cmd_option_mm(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int) -> None:
    om = cfg["option_mm"]
    heston, arrival, risk = _heston(cfg), _arrival(cfg), _risk(cfg)
    T = cfg.get("sim", "t_horizon")
    pricing = _pricing_config(cfg)
    step_count(T, om["dt"])  # the books' step rule, checked before the grid solve
    grid = solve_call_grid(pricing)
    half_s = 0.75 * (grid.s_grid[-1] - heston.s0)
    s_nodes = np.linspace(heston.s0 - half_s, heston.s0 + half_s, om["lattice_n_s"])
    nu_nodes = np.linspace(0.04 * grid.nu_grid[-1], 0.75 * grid.nu_grid[-1], om["lattice_n_nu"])
    t_nodes = np.linspace(0.0, T, om["lattice_n_t"])
    lattice = FunctionalLattice.build(s_nodes, nu_nodes, t_nodes, T, heston, risk, grid)
    if om["hedged"]:
        st = run_hedged_paths(heston, arrival, risk, grid, lattice, T=T, dt=om["dt"],
                              n_paths=n, seed=seed, q_o0=om["q_o0"])
        _write_rows(
            art.path(),
            ["mode", "n", "z_mean", "q_o_mean", "qv_hedged_mean", "qv_unhedged_mean",
             "qv_rate_real", "qv_rate_pred", "qv_rate_disc", "clipped"],
            ["hedged", st.n, st.z_mean, st.q_o_mean, st.qv_hedged.mean(), st.qv_unhedged.mean(),
             st.qv_rate_real.mean(), st.qv_rate_pred.mean(), st.qv_rate_disc.mean(), st.clipped],
        )
        tr = st.trace
        _write_rows(art.path("trace"), ["t", "s", "nu", "q_o", "a_o", "b_o"],
                    [tr["t"], tr["s"], tr["nu"], tr["q_o"].astype(int), tr["a_o"], tr["b_o"]])
    else:
        st = run_joint_paths(heston, arrival, risk, grid, lattice, T=T, dt=om["dt"],
                             n_paths=n, seed=seed, q_o0=om["q_o0"])
        _write_rows(
            art.path(),
            ["mode", "n", "z_mean", "z_std", "q_s_mean", "q_o_mean", "qv_mean", "clipped"],
            ["joint", st.n, st.z_mean, st.z_std, st.q_s_mean, st.q_o_mean, st.qv_mean, st.clipped],
        )
    write_lattice_csv(lattice, art.path("lattice"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hestonmm",
        description="Market-making experiments under stochastic volatility",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("simulate", "compare", "frontier", "trading-curve", "hjb",
                 "price-option", "option-mm"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="config file (key = value with [sections])")
        p.add_argument("--seed", type=int, help="master seed (overrides sim.seed)")
        p.add_argument("--paths", type=int, help="number of Monte Carlo paths")
        p.add_argument("--threads", type=int, default=1, help="worker threads for the path "
                       "blocks of simulate, compare, frontier and trading-curve")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} or cwd)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value; repeatable")
        if name == "option-mm":
            p.add_argument("--hedged", action=argparse.BooleanOptionalAction, default=None,
                           help="delta-hedged book (default from config)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set)
        if args.seed is not None:
            cfg.values["sim"]["seed"] = int(args.seed)
        if args.threads < 1:
            raise ConfigError("--threads must be positive")
        if args.paths is not None:
            if args.paths < 1:
                raise ConfigError("--paths must be positive")
            cfg.values["sim"]["n_paths"] = int(args.paths)
            cfg.values["frontier"]["n_paths"] = int(args.paths)
            cfg.values["option_mm"]["n_paths"] = int(args.paths)
        if getattr(args, "hedged", None) is not None:
            cfg.values["option_mm"]["hedged"] = args.hedged
        out_dir = Path(args.out or cfg.get("output", "dir")
                       or os.environ.get(ENV_OUTPUT_DIR, "."))
        out_dir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg.get("sim", "seed")
    n = cfg.get("sim", "n_paths")
    art = ArtifactWriter(out_dir, args.subcommand, seed)
    run = {
        "simulate": lambda: _cmd_simulate(cfg, art, seed, n, args.threads),
        "compare": lambda: _cmd_compare(cfg, art, seed, n, args.threads),
        "frontier": lambda: _cmd_frontier(cfg, art, seed, args.threads),
        "trading-curve": lambda: _cmd_trading_curve(cfg, art, seed, n, args.threads),
        "hjb": lambda: _cmd_hjb(cfg, art, seed),
        "price-option": lambda: _cmd_price_option(cfg, art, seed),
        "option-mm": lambda: _cmd_option_mm(cfg, art, seed, cfg.get("option_mm", "n_paths")),
    }[args.subcommand]
    try:
        run()
        dump_manifest(cfg, art.path(ext=".manifest"))
    except _NUMERICAL_ERRORS as exc:
        art.cleanup()
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        # domain-parameter validation failures are configuration problems
        art.cleanup()
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for p in art.written:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
