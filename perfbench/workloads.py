"""The three benchmark workloads and the checks on their outputs.

A workload is built once per process from ``(seed, size)``; that covers the
configuration layer and is what ``setup_s`` times.  ``iteration(out_dir)``
does the timed work and returns what ``check`` needs; ``check`` returns the
list of acceptance predicates that failed (empty when the output is right);
``result_err`` is the workload's own error estimate for its headline number.

Sizes: ``full`` is the CLI default configuration.  ``tiny`` exists only for
the benchmark's self-test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import re
import time
from pathlib import Path

import numpy as np
import scipy  # noqa: F401  (imported here so set-up time covers it)

# The timed work calls into the program through module attributes
# (``option_mm.run_hedged_paths``), where the traced run wraps them.
from hestonmm import cli, option_mm, option_pricing, sim_engine
from hestonmm.config import apply_overrides, load_config
from hestonmm.heston import HestonParams
from hestonmm.intensity import ArrivalParams
from hestonmm.option_pricing import PricingConfig, default_nu_grid, default_s_grid
from hestonmm.quotes import InventorySV, RiskParams
from hestonmm.sim_engine import SimConfig

_STAMP = re.compile(r"-\d{8}T\d{6}-")


def run_cli(argv: list[str], out_dir: Path) -> None:
    """Run one ``hestonmm`` subcommand in-process; a non-zero exit raises."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", str(out_dir)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"hestonmm {' '.join(argv)} exited {code}")


def artifacts(out_dir: Path) -> tuple[int, str]:
    """Total CSV bytes and a digest of the CSV contents keyed by file name
    with the timestamp removed, so reruns compare equal."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(out_dir.glob("*.csv"), key=lambda p: _STAMP.sub("-", p.name)):
        data = p.read_bytes()
        total += len(data)
        h.update(_STAMP.sub("-", p.name).encode() + b"\0" + data)
    return total, h.hexdigest()


def _one(out_dir: Path, pattern: str) -> Path:
    found = sorted(out_dir.glob(pattern))
    if len(found) != 1:
        raise RuntimeError(f"expected one artifact {pattern!r}, found {len(found)}")
    return found[0]


def _params(cfg) -> tuple[HestonParams, ArrivalParams, RiskParams]:
    """Model parameters from a resolved configuration, as the CLI builds them."""
    h, r = cfg["heston"], cfg["risk"]
    return (HestonParams(theta=h["theta"], alpha=h["alpha"], xi=h["xi"], rho=h["rho"],
                         s0=h["s0"], nu0=h["nu0"]),
            ArrivalParams(A=cfg.get("arrival", "a"), k=cfg.get("arrival", "k")),
            RiskParams(gamma=r["gamma"], beta=r["beta"], eta=r["eta"]))


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class StockMM:
    """``hestonmm compare --paths 10000``: inventory then symmetric ensemble."""

    name = "stock-mm"

    def __init__(self, seed: int, size: str):
        self.paths = {"full": 10_000, "tiny": 1_000}[size]
        self.seed = seed
        self.argv = ["compare", "--paths", str(self.paths), "--seed", str(seed)]
        cfg = load_config()
        heston, arrival, risk = _params(cfg)
        s = cfg["sim"]
        self.sim = SimConfig(heston=heston, arrival=arrival, risk=risk, T=s["t_horizon"],
                             dt=s["dt"], q0=s["q0"], scheme=s["scheme"])

    def iteration(self, out_dir: Path) -> dict:
        run_cli(self.argv, out_dir)
        table = _read_rows(_one(out_dir, f"compare-*-{self.seed}.csv"))
        return {"table": {row["Strategy"]: row for row in table}}

    def _stats(self, res: dict, name: str) -> tuple[float, float]:
        row = res["table"][name]
        return float(row["Profit"]), float(row["Std (Profit)"])

    def check(self, res: dict) -> list[str]:
        """Criterion 5: inventory profit in [55, 75], symmetric profit std at
        least 1.5x the inventory one, symmetric mean not below inventory mean
        by more than 2 SE."""
        inv_mean, inv_std = self._stats(res, "Inventory")
        sym_mean, sym_std = self._stats(res, "Symmetric")
        se = math.hypot(inv_std, sym_std) / math.sqrt(self.paths)
        problems = []
        if not 55.0 <= inv_mean <= 75.0:
            problems.append(f"inventory profit {inv_mean} outside [55, 75]")
        if not sym_std >= 1.5 * inv_std:
            problems.append(f"std ratio {sym_std / inv_std} below 1.5")
        if not sym_mean >= inv_mean - 2.0 * se:
            problems.append(f"symmetric mean {sym_mean} below inventory {inv_mean} - 2 SE")
        return problems

    def result_err(self, res: dict) -> float:
        """SE of the inventory policy's mean profit."""
        return self._stats(res, "Inventory")[1] / math.sqrt(self.paths)

    def threads2_speedup(self) -> float:
        """Wall time of the inventory ensemble at ``threads=1`` over
        ``threads=2`` (best of two each)."""
        policy = InventorySV(self.sim.heston, self.sim.arrival, self.sim.risk, self.sim.T)
        best = {}
        for threads in (1, 2, 1, 2):
            t0 = time.perf_counter()
            sim_engine.run_ensemble(policy, self.sim, self.paths, self.seed, threads=threads)
            best[threads] = min(best.get(threads, math.inf), time.perf_counter() - t0)
        return best[1] / best[2]


class Pde:
    """``hestonmm hjb`` then ``hestonmm price-option``, both at defaults."""

    name = "pde"

    def __init__(self, seed: int, size: str):
        hjb_set = {"full": [], "tiny": ["hjb.q_min=-5", "hjb.q_max=5", "hjb.n_nu=13",
                                        "hjb.n_time=400"]}[size]
        price_set = {"full": [], "tiny": ["pricing.n_s=41", "pricing.n_nu=9",
                                          "pricing.n_time=60"]}[size]
        self.seed = seed
        self.hjb_argv = ["hjb", "--seed", str(seed)] + [a for s in hjb_set for a in ("--set", s)]
        self.price_argv = (["price-option", "--seed", str(seed)]
                           + [a for s in price_set for a in ("--set", s)])
        cfg = apply_overrides(load_config(), hjb_set + price_set)
        hcfg = cfg["hjb"]
        self.strike = cfg.get("pricing", "strike")
        self.q_min, self.q_max = hcfg["q_min"], hcfg["q_max"]
        # the solver stores at most 201 time slices: every stride-th step plus T
        stride = math.ceil(hcfg["n_time"] / 200)
        n_slices = len(range(0, hcfg["n_time"], stride)) + 1
        self.grid_rows = (self.q_max - self.q_min + 1) * hcfg["n_nu"] * n_slices

    def iteration(self, out_dir: Path) -> dict:
        run_cli(self.hjb_argv, out_dir)
        run_cli(self.price_argv, out_dir)
        return {
            "report": _read_rows(_one(out_dir, f"hjb-*-{self.seed}.csv"))[0],
            "grid": _one(out_dir, f"hjb-*-{self.seed}-grid.csv"),
            "slice": _one(out_dir, f"price-option-*-{self.seed}.csv"),
        }

    def check(self, res: dict) -> list[str]:
        """``sandwich_ok``, finite values and the expected row count in the
        HJB grid, and criterion 9's parity bound on the pricer slice.
        Criterion 4a's quote gap is a standing failure and is not checked."""
        problems = []
        if res["report"]["sandwich_ok"] != "1":
            problems.append("sandwich bound violated")
        if not math.isfinite(self.result_err(res)):
            problems.append("non-finite tolerance")
        grid = np.loadtxt(res["grid"], delimiter=",", skiprows=1, ndmin=2)
        if grid.shape != (self.grid_rows, 8):
            problems.append(f"grid CSV has shape {grid.shape}, expected ({self.grid_rows}, 8)")
        else:
            q = grid[:, 0]
            # the exact ask is undefined at q_min and the exact bid at q_max
            finite = np.isfinite(grid[:, [0, 1, 2, 3, 6, 7]]).all(axis=1)
            finite &= np.isfinite(grid[:, 4]) | (q == self.q_min)
            finite &= np.isfinite(grid[:, 5]) | (q == self.q_max)
            if not finite.all():
                problems.append(f"{int((~finite).sum())} grid rows with non-finite values")
        sl = np.loadtxt(res["slice"], delimiter=",", skiprows=1, ndmin=2)
        if sl.size == 0 or not np.isfinite(sl).all():
            problems.append("pricer slice empty or non-finite")
        else:
            s = sl[:, 0]
            interior = (s > s.min()) & (s < s.max())
            parity = np.abs(sl[:, 3] - sl[:, 4] - (s - self.strike))[interior]
            if not parity.max() <= 0.005 * self.strike:
                problems.append(f"parity sup {parity.max()} above {0.005 * self.strike}")
        return problems

    def result_err(self, res: dict) -> float:
        """The HJB refinement tolerance (``estimate_tolerance``)."""
        return float(res["report"]["tol"])


class OptionMM:
    """Pricing grid, ATM Monte Carlo oracle, functional lattice, hedged and
    joint books, lattice CSV: the pieces of ``hestonmm option-mm`` at the
    CLI defaults, with both books on one grid and lattice."""

    name = "option-mm"

    def __init__(self, seed: int, size: str):
        tiny = size == "tiny"
        overrides = (["pricing.n_s=81", "pricing.n_nu=16", "pricing.n_time=100",
                      "option_mm.lattice_n_s=3", "option_mm.lattice_n_nu=3",
                      "option_mm.lattice_n_t=3", "option_mm.n_paths=100",
                      "option_mm.dt=0.01"] if tiny else [])
        cfg = apply_overrides(load_config(), overrides)
        p, om = cfg["pricing"], cfg["option_mm"]
        self.seed = seed
        self.T = cfg.get("sim", "t_horizon")
        self.heston, self.arrival, self.risk = _params(cfg)
        self.pricing = PricingConfig(
            heston=self.heston, strike=p["strike"], T=self.T, eta_nu=p["eta_nu"],
            s_grid=tuple(default_s_grid(self.heston, self.T, p["n_s"])),
            nu_grid=tuple(default_nu_grid(self.heston, self.T, p["n_nu"])),
            n_time=p["n_time"],
        )
        # lattice nodes exactly as the option-mm subcommand places them
        s, nu = self.pricing.s, self.pricing.nu
        half_s = 0.75 * (s[-1] - self.heston.s0)
        self.s_nodes = np.linspace(self.heston.s0 - half_s, self.heston.s0 + half_s,
                                   om["lattice_n_s"])
        self.nu_nodes = np.linspace(0.04 * nu[-1], 0.75 * nu[-1], om["lattice_n_nu"])
        self.t_nodes = np.linspace(0.0, self.T, om["lattice_n_t"])
        self.lattice_paths = om["lattice_paths"]
        self.mc_paths = 2_000 if tiny else 60_000
        self.n_paths, self.dt, self.q_o0 = om["n_paths"], om["dt"], om["q_o0"]

    def iteration(self, out_dir: Path) -> dict:
        s0, nu0 = self.heston.s0, self.heston.nu0
        grid = option_pricing.solve_call_grid(self.pricing)
        mc, mc_se = option_pricing.mc_price(self.pricing, s0, nu0, 0.0, n_paths=self.mc_paths,
                                            seed=self.seed)
        lattice = option_mm.FunctionalLattice.build(
            self.s_nodes, self.nu_nodes, self.t_nodes, self.T, self.heston, self.risk, grid,
            n_paths=self.lattice_paths, seed=self.seed)
        books = dict(heston=self.heston, arrival=self.arrival, risk=self.risk, grid=grid,
                     lattice=lattice, T=self.T, dt=self.dt, n_paths=self.n_paths,
                     seed=self.seed, q_o0=self.q_o0)
        hedged = option_mm.run_hedged_paths(**books)
        joint = option_mm.run_joint_paths(**books)
        option_mm.write_lattice_csv(lattice, out_dir / f"option-mm-{self.seed}-lattice.csv")
        return {"pde": grid.price(s0, nu0, 0.0), "mc": mc, "mc_se": mc_se,
                "hedged": hedged, "joint": joint}

    def check(self, res: dict) -> list[str]:
        """Criterion 9's oracle tolerance at ATM, criterion 10's QV identity
        and hedged/unhedged ratio, and finite joint-book statistics."""
        problems = []
        pde, mc = res["pde"], res["mc"]
        tol = 3.0 * res["mc_se"] + 0.01 + 0.005 * pde
        if not abs(pde - mc) <= tol:
            problems.append(f"ATM PDE {pde} vs MC {mc} beyond {tol}")
        st = res["hedged"]
        diff = st.qv_rate_real - st.qv_rate_pred
        se = float(diff.std(ddof=1)) / math.sqrt(st.n)
        qv_tol = 3.0 * se + 2.0 * float(st.qv_rate_disc.mean())
        if not abs(float(diff.mean())) <= qv_tol:
            problems.append(f"QV identity gap {diff.mean()} beyond {qv_tol}")
        d = st.qv_unhedged - st.qv_hedged
        ratio = float(st.qv_hedged.mean() / st.qv_unhedged.mean())
        if not (ratio < 1.0 and float(d.mean()) - 3.0 * d.std(ddof=1) / math.sqrt(st.n) > 0):
            problems.append(f"hedging does not reduce QV (ratio {ratio})")
        j = res["joint"]
        if not all(math.isfinite(v) for v in (j.z_mean, j.z_std, j.q_s_mean, j.q_o_mean, j.qv_mean)):
            problems.append("non-finite joint-book statistics")
        return problems

    def result_err(self, res: dict) -> float:
        """SE of the Monte Carlo ATM call price.  The SE of the hedged QV
        identity gap would be the natural choice, but with 1000 heavy-tailed
        paths it moves by about a fifth from seed to seed; the book's
        accuracy is guarded by the criterion 10 checks instead."""
        return res["mc_se"]


WORKLOADS = {w.name: w for w in (StockMM, Pde, OptionMM)}
