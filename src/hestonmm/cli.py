"""Experiment runner.

Subcommands map to the core experiments: ``simulate`` (ensemble + the series
of its path 0), ``compare`` (inventory vs symmetric table), ``frontier``
(risk-aversion sweep), ``trading-curve`` (average inventory path), ``hjb``
(exact value function and approximation report), ``price-option`` (call
surface slices) and ``option-mm`` (option market-making summary).

Every run resolves its configuration from defaults, an optional config file,
``--set section.key=value`` overrides and the ``--seed``, ``--paths`` and
``--hedged`` flags, which are overrides too (in that precedence order), writes
CSV artifacts named ``<subcommand>-<timestamp>-<seed>.csv`` next to a manifest
echoing the resolved configuration, and prints the written paths.  All
randomness flows from the single master seed, so artifact contents are
byte-identical across reruns.

Exit codes: 0 success, 2 on a ``ConfigError`` and 3 on a ``NumericalError``
(see ``hestonmm.errors``).  A failed run first removes every file it wrote;
any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, dump_manifest, load_config
from .errors import ConfigError, NumericalError
from .heston import HestonParams, step_count
from .hjb import HjbConfig, compare_exact_vs_approx, solve_stock_hjb, write_grid_csv, write_report_csv
from .intensity import ArrivalParams
from .option_mm import FunctionalLattice, run_hedged_paths, run_joint_paths, write_lattice_csv
from .option_pricing import PricingConfig, default_nu_grid, default_s_grid, solve_call_grid, write_slice_csv
from .quotes import Frozen, InventorySV, MarketImpact, RiskNeutral, RiskParams, Symmetric
from .sim_engine import SimConfig, efficient_frontier, run_ensemble
from .table import write_table

ENV_OUTPUT_DIR = "HESTONMM_OUT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _heston(cfg: RunConfig) -> HestonParams:
    return HestonParams(**cfg["heston"])


def _arrival(cfg: RunConfig) -> ArrivalParams:
    return ArrivalParams(A=cfg.get("arrival", "a"), k=cfg.get("arrival", "k"))


def _risk(cfg: RunConfig) -> RiskParams:
    return RiskParams(**cfg["risk"])


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


def _symmetric_prerun(cfg: RunConfig, sim: SimConfig, seed: int, n: int):
    """Run the inventory book (``MarketImpact`` when ``sim.impact``) and return
    its ensemble with the ``Symmetric`` policy quoting its average spread.

    The pre-run uses the seed and path count of the run it serves, so both
    books see the same draws.
    """
    base = run_ensemble(_policy(cfg, sim, "impact" if sim.impact else "inventory"), sim, n, seed)
    return base, Symmetric(base.avg_spread)


def _configured_policy(cfg: RunConfig, sim: SimConfig, seed: int, n: int):
    """The ``sim.policy`` book; ``symmetric`` comes from a same-seed pre-run."""
    if cfg.get("sim", "policy") == "symmetric":
        return _symmetric_prerun(cfg, sim, seed, n)[1]
    return _policy(cfg, sim)


class ArtifactWriter:
    """Names, tracks and (on failure) removes output files.  A run whose stem
    already names a file in ``out_dir`` (``<stem>.*`` or ``<stem>-*``: a run of
    this subcommand and seed in the same second) is refused before any work."""

    def __init__(self, out_dir: Path, subcommand: str, seed: int):
        self.out_dir = out_dir
        self.stem = f"{subcommand}-{time.strftime('%Y%m%dT%H%M%S')}-{seed}"
        self.written: list[Path] = []
        taken = [p for p in out_dir.iterdir() if p.name.startswith((self.stem + ".", self.stem + "-"))]
        if taken:
            p = min(taken, key=lambda p: (len(p.name), p.name))  # the main table, if any
            raise ConfigError(f"{p} already exists: a run of this subcommand and seed in this second")

    def path(self, suffix: str = "", ext: str = ".csv") -> Path:
        """Create the file; one already there (a colliding run that started
        after this one) is left as it is and raises ``ConfigError``."""
        p = self.out_dir / (self.stem + (f"-{suffix}" if suffix else "") + ext)
        try:
            p.touch(exist_ok=False)
        except FileExistsError:
            raise ConfigError(f"{p} already exists: a run of this subcommand and seed in this second") from None
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


def _cmd_simulate(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int) -> None:
    sim = _sim_config(cfg)
    stats = run_ensemble(_configured_policy(cfg, sim, seed, n), sim, n, seed)
    _write_rows(art.path(), ["seed", "profit", "q_T", "z", "avg_spread"],
                [np.arange(stats.n), stats.profits, stats.q_terminal, stats.z_terminal,
                 stats.spread_terminal])
    tr = stats.trace
    s, da, db = tr["s"], tr["da"], tr["db"]
    _write_rows(art.path("series"), ["t", "s", "p_a", "p_b", "q", "z"],
                [stats.curve_times, s, np.where(np.isfinite(da), s + da, np.nan),
                 np.where(np.isfinite(db), s - db, np.nan), tr["q"], tr["z"]])


def _cmd_compare(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int) -> None:
    sim = _sim_config(cfg)
    inv, symmetric = _symmetric_prerun(cfg, sim, seed, n)
    sym = run_ensemble(symmetric, sim, n, seed)
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


def _cmd_frontier(cfg: RunConfig, art: ArtifactWriter, seed: int) -> None:
    sim = _sim_config(cfg, q0=cfg.get("frontier", "q0"))
    points = efficient_frontier(sim, cfg.get("frontier", "gammas"), cfg.get("frontier", "n_paths"), seed)
    _write_rows(
        art.path(),
        ["gamma", "variance", "expected_objective", "objective_se", "profit_mean"],
        zip(*[(p.gamma, p.variance_proxy, p.objective, p.objective_se, p.profit_mean)
              for p in points]),
    )


def _cmd_trading_curve(cfg: RunConfig, art: ArtifactWriter, seed: int, n: int) -> None:
    sim = _sim_config(cfg)
    stats = run_ensemble(_configured_policy(cfg, sim, seed, n), sim, n, seed)
    _write_rows(art.path(), ["t", "q_mean", "q_std"], [stats.curve_times, stats.curve_mean, stats.curve_std])


def _cmd_hjb(cfg: RunConfig, art: ArtifactWriter) -> None:
    h = dict(cfg["hjb"])
    nu_window = (h.pop("gap_nu_lo"), h.pop("gap_nu_hi"))  # the comparison's, not the solve's
    hcfg = HjbConfig(heston=_heston(cfg), arrival=_arrival(cfg), risk=_risk(cfg),
                     T=cfg.get("sim", "t_horizon"), **h)
    grid = solve_stock_hjb(hcfg)
    if not hcfg.include_impact:
        report = compare_exact_vs_approx(grid, nu_window=nu_window)
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


def _cmd_price_option(cfg: RunConfig, art: ArtifactWriter) -> None:
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
        p.add_argument("--paths", type=int, help="number of Monte Carlo paths (overrides "
                       "sim.n_paths, frontier.n_paths and option_mm.n_paths)")
        p.add_argument("--out", help=f"output directory (default ${ENV_OUTPUT_DIR} or cwd)")
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value; repeatable")
        if name == "option-mm":
            p.add_argument("--hedged", action=argparse.BooleanOptionalAction, default=None,
                           help="delta-hedged book (overrides option_mm.hedged)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    art = None
    try:
        # the flags are overrides too, after --set so that they win
        flags = [] if args.seed is None else [f"sim.seed={args.seed}"]
        if args.paths is not None:
            flags += [f"{sec}.n_paths={args.paths}" for sec in ("sim", "frontier", "option_mm")]
        if getattr(args, "hedged", None) is not None:
            flags.append(f"option_mm.hedged={str(args.hedged).lower()}")
        cfg = load_config(args.config, args.set + flags)
        out_dir = Path(args.out or cfg.get("output", "dir")
                       or os.environ.get(ENV_OUTPUT_DIR, "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        seed = cfg.get("sim", "seed")
        art = ArtifactWriter(out_dir, args.subcommand, seed)
        n = cfg.get("sim", "n_paths")
        {
            "simulate": lambda: _cmd_simulate(cfg, art, seed, n),
            "compare": lambda: _cmd_compare(cfg, art, seed, n),
            "frontier": lambda: _cmd_frontier(cfg, art, seed),
            "trading-curve": lambda: _cmd_trading_curve(cfg, art, seed, n),
            "hjb": lambda: _cmd_hjb(cfg, art),
            "price-option": lambda: _cmd_price_option(cfg, art),
            "option-mm": lambda: _cmd_option_mm(cfg, art, seed, cfg.get("option_mm", "n_paths")),
        }[args.subcommand]()
        dump_manifest(cfg, art.path(ext=".manifest"))
    except BaseException as exc:
        if art is not None:
            art.cleanup()
        if isinstance(exc, ConfigError):
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if isinstance(exc, NumericalError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        raise
    for p in art.written:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
