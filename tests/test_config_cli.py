import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from hestonmm import cli, hjb, sim_engine
from hestonmm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _policy, _sim_config, main
from hestonmm.config import ConfigError, apply_overrides, dump_manifest, load_config
from hestonmm.option_pricing import PricingConfig, default_nu_grid, default_s_grid


def run_cli(*args) -> int:
    return main(list(args))


def outputs(out_dir: Path, sub: str, seed: int):
    main_csvs = sorted(out_dir.glob(f"{sub}-*-{seed}.csv"))
    return main_csvs


def test_defaults_match_baseline():
    cfg = load_config()
    assert cfg.get("heston", "theta") == 0.02
    assert cfg.get("arrival", "a") == 140.0
    assert cfg.get("risk", "beta") == 0.03
    assert cfg.get("sim", "dt") == 0.005
    assert cfg.get("risk", "eta") == 0.09


def test_grid_defaults_agree_with_the_library():
    # the grid defaults are written twice, in the config schema and in the
    # library's dataclasses and signatures: a default must move in both
    cfg = load_config()
    hjb_fields = {f.name: f.default for f in dataclasses.fields(hjb.HjbConfig)
                  if f.default is not dataclasses.MISSING}
    assert {key: cfg.get("hjb", key) for key in hjb_fields} == hjb_fields
    assert set(cfg["hjb"]) - set(hjb_fields) == {"gap_nu_lo", "gap_nu_hi"}  # the comparison window
    pricing = cfg["pricing"]
    assert (pricing["n_time"], pricing["eta_nu"]) == (PricingConfig.n_time, PricingConfig.eta_nu)
    assert pricing["n_s"] == inspect.signature(default_s_grid).parameters["n"].default
    assert pricing["n_nu"] == inspect.signature(default_nu_grid).parameters["n"].default


def test_unknown_keys_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[heston]\nthetaa = 0.3\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        apply_overrides(load_config(), ["heston.bogus=1"])
    with pytest.raises(ConfigError):
        apply_overrides(load_config(), ["not-an-override"])


def test_three_layer_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[risk]\ngamma = 0.2\nbeta = 0.01\n")
    cfg = load_config(cfgfile)
    assert cfg.get("risk", "gamma") == 0.2  # file beats default
    assert cfg.get("risk", "eta") == 0.09  # default survives
    apply_overrides(cfg, ["risk.gamma=0.3"])
    assert cfg.get("risk", "gamma") == 0.3  # flag beats file
    assert cfg.get("risk", "beta") == 0.01


def test_manifest_round_trip(tmp_path):
    cfg = load_config()
    apply_overrides(cfg, ["risk.gamma=0.25", "sim.n_paths=7", "frontier.gammas=0.1 0.2"])
    man = tmp_path / "m.manifest"
    dump_manifest(cfg, man)
    cfg2 = load_config(man)
    assert cfg2.values == cfg.values


def test_simulate_deterministic_and_rerunnable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--paths", "5", "--seed", "7", "--out", str(out1)) == EXIT_OK
    assert run_cli("simulate", "--paths", "5", "--seed", "7", "--out", str(out2)) == EXIT_OK
    c1 = outputs(out1, "simulate", 7)[0].read_bytes()
    c2 = outputs(out2, "simulate", 7)[0].read_bytes()
    assert c1 == c2
    s1 = sorted(out1.glob("simulate-*-series.csv"))[0].read_bytes()
    s2 = sorted(out2.glob("simulate-*-series.csv"))[0].read_bytes()
    assert s1 == s2


def test_manifest_reruns_identically(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--paths", "4", "--seed", "3", "--out", str(out1),
                   "--set", "risk.gamma=0.35") == EXIT_OK
    manifest = sorted(out1.glob("simulate-*.manifest"))[0]
    assert run_cli("simulate", "--config", str(manifest), "--out", str(out2)) == EXIT_OK
    c1 = outputs(out1, "simulate", 3)[0].read_bytes()
    c2 = outputs(out2, "simulate", 3)[0].read_bytes()
    assert c1 == c2
    # a command-line flag the manifest must echo: the joint book, not the config's hedged one
    assert run_cli("option-mm", "--no-hedged", "--seed", "3", "--out", str(out1),
                   "--set", "option_mm.n_paths=20", "--set", "option_mm.dt=0.01",
                   "--set", "pricing.n_s=41", "--set", "pricing.n_nu=9",
                   "--set", "pricing.n_time=60") == EXIT_OK
    manifest = sorted(out1.glob("option-mm-*.manifest"))[0]
    assert run_cli("option-mm", "--config", str(manifest), "--out", str(out2)) == EXIT_OK
    c1 = outputs(out1, "option-mm", 3)[0].read_bytes()
    assert c1.startswith(b"mode,n,z_mean,z_std,q_s_mean")
    assert c1 == outputs(out2, "option-mm", 3)[0].read_bytes()


def test_threads_do_not_change_bytes(tmp_path):
    # 2,100 paths run as three blocks, so the threads really share them
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("compare", "--paths", "2100", "--seed", "9", "--threads", "1",
                   "--out", str(out1)) == EXIT_OK
    assert run_cli("compare", "--paths", "2100", "--seed", "9", "--threads", "8",
                   "--out", str(out2)) == EXIT_OK
    assert outputs(out1, "compare", 9)[0].read_bytes() == outputs(out2, "compare", 9)[0].read_bytes()


def test_config_error_exit_code(tmp_path):
    assert run_cli("simulate", "--set", "sim.nonsense=1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("simulate", "--set", "sim.policy=warp", "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("simulate", "--config", str(tmp_path / "missing.cfg"),
                   "--out", str(tmp_path)) == EXIT_CONFIG
    # domain validation failures also count as configuration errors
    assert run_cli("simulate", "--paths", "2", "--set", "heston.theta=-1",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert run_cli("simulate", "--paths", "2", "--set", "heston.rho=1.5",
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert list(tmp_path.glob("*.csv")) == []


def test_removed_pricing_mc_paths_is_an_unknown_key(tmp_path, capsys):
    assert run_cli("price-option", "--set", "pricing.mc_paths=5", "--out", str(tmp_path)) == EXIT_CONFIG
    assert "mc_paths" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub, override, field", [
    ("hjb", "sim.t_horizon=nan", "T"),
    ("hjb", "hjb.nu_hi=inf", "nu_hi"),
    ("hjb", "hjb.nu_lo=nan", "nu_lo"),
    ("simulate", "sim.t_horizon=nan", "T"),
    ("price-option", "sim.t_horizon=nan", "T"),
    ("option-mm", "option_mm.dt=0", "dt"),
    ("option-mm", "option_mm.dt=-0.001", "dt"),
    ("option-mm", "option_mm.dt=nan", "dt"),
])
def test_non_finite_horizon_or_variance_box_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                               sub, override, field):
    # each is rejected before a grid solve
    for solve in ("solve_stock_hjb", "solve_call_grid"):
        monkeypatch.setattr(cli, solve, lambda *args, name=solve: pytest.fail(f"{name} ran"))
    assert run_cli(sub, "--paths", "2", "--set", override, "--out", str(tmp_path)) == EXIT_CONFIG
    assert f"config error: {field} must be finite" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_a_config_error(tmp_path, capsys, threads):
    assert run_cli("compare", "--paths", "150", "--threads", threads,
                   "--out", str(tmp_path)) == EXIT_CONFIG
    assert "config error: --threads must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("lo, hi", [("20", "30"), ("5", "2")])
def test_empty_gap_window_is_a_config_error(tmp_path, capsys, monkeypatch, lo, hi):
    # the window is checked before the refinement solve of the tolerance
    monkeypatch.setattr(hjb, "estimate_tolerance", lambda *args: pytest.fail("tolerance solved"))
    assert run_cli("hjb", "--set", "hjb.n_time=20", "--set", f"hjb.gap_nu_lo={lo}",
                   "--set", f"hjb.gap_nu_hi={hi}", "--out", str(tmp_path)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: nu_window ({lo}.0, {hi}.0) holds no variance node of [0, 12]" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_numerical_error_exit_and_cleanup(tmp_path):
    # fill rates near the top of the float range overflow in the first step
    code = run_cli("hjb", "--set", "arrival.a=1e300", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert list(tmp_path.glob("hjb-*")) == []  # partial outputs removed


def test_programming_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    def unfinished(config):
        raise NotImplementedError("solver stub")

    monkeypatch.setattr(cli, "solve_call_grid", unfinished)
    with pytest.raises(NotImplementedError):
        run_cli("price-option", "--out", str(tmp_path))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_simulation_exit_and_cleanup(tmp_path, monkeypatch):
    # the one-path series run after the ensemble goes non-finite, so the
    # terminal table is already written and must be removed
    step = sim_engine.euler_step

    def exploding(s, nu, *args, **kw):
        ds, nu_next = step(s, nu, *args, **kw)
        return (np.full_like(ds, np.inf) if s.size == 1 else ds), nu_next

    monkeypatch.setattr(sim_engine, "euler_step", exploding)
    code = run_cli("simulate", "--paths", "3", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert list(tmp_path.glob("simulate-*")) == []


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HESTONMM_OUT", str(tmp_path / "envout"))
    assert run_cli("simulate", "--paths", "2", "--seed", "1") == EXIT_OK
    assert len(list((tmp_path / "envout").glob("simulate-*.csv"))) == 2


def test_trading_curve_and_frontier_outputs(tmp_path):
    assert run_cli("trading-curve", "--paths", "50", "--seed", "2",
                   "--set", "sim.q0=6", "--set", "sim.snapshot_stride=50",
                   "--out", str(tmp_path)) == EXIT_OK
    curve = outputs(tmp_path, "trading-curve", 2)[0].read_text().splitlines()
    assert curve[0] == "t,q_mean,q_std"
    assert len(curve) == 6  # header + snapshots at steps 0,50,100,150,200
    assert run_cli("frontier", "--paths", "40", "--seed", "2",
                   "--set", "frontier.gammas=0.0 0.1", "--out", str(tmp_path)) == EXIT_OK
    frontier = outputs(tmp_path, "frontier", 2)[0].read_text().splitlines()
    assert frontier[0] == "gamma,variance,expected_objective,objective_se,profit_mean"
    assert len(frontier) == 3


def test_simulate_policy_variants(tmp_path):
    # each selectable policy runs end to end through the CLI
    for policy in ("frozen", "risk_neutral", "impact", "symmetric"):
        out = tmp_path / policy
        extra = ["--set", "sim.impact=true"] if policy == "impact" else []
        assert run_cli("simulate", "--paths", "3", "--seed", "11",
                       "--set", f"sim.policy={policy}", *extra,
                       "--out", str(out)) == EXIT_OK
        series = sorted(out.glob("simulate-*-series.csv"))[0].read_text().splitlines()
        assert series[0] == "t,s,p_a,p_b,q,z"
    # the frozen book posts no quotes: p_a/p_b columns are nan throughout
    frozen_rows = sorted((tmp_path / "frozen").glob("simulate-*-series.csv"))[0]
    body = frozen_rows.read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "nan" for row in body)
    assert all(row.split(",")[4] == "0" for row in body)  # inventory never moves



def test_simulate_symmetric_quotes_prerun_spread(tmp_path):
    # the symmetric book quotes the average spread of a same-seed inventory
    # pre-run, the same spread that compare reports for its inventory row
    assert run_cli("simulate", "--paths", "3", "--seed", "11", "--set", "sim.policy=symmetric",
                   "--out", str(tmp_path)) == EXIT_OK
    assert run_cli("compare", "--paths", "3", "--seed", "11", "--out", str(tmp_path)) == EXIT_OK
    inv_row = outputs(tmp_path, "compare", 11)[0].read_text().splitlines()[1].split(",")
    assert inv_row[0] == "Inventory"
    inv_spread = float(inv_row[1])
    body = sorted(tmp_path.glob("simulate-*-series.csv"))[0].read_text().splitlines()[1:]
    rows = [[float(x) for x in row.split(",")] for row in body]
    assert rows[-1][0] == 1.0 and math.isnan(rows[-1][2]) and math.isnan(rows[-1][3])
    quoting = rows[:-1]  # the book closes at the horizon, as for every policy
    assert len(quoting) == 200
    assert all(math.isfinite(r[2]) and math.isfinite(r[3]) for r in quoting)
    spreads = [r[2] - r[3] for r in quoting]
    assert max(spreads) - min(spreads) <= 1e-9
    assert spreads[0] == pytest.approx(inv_spread, abs=1e-9)


def test_trading_curve_symmetric_policy(tmp_path):
    assert run_cli("trading-curve", "--paths", "5", "--seed", "2",
                   "--set", "sim.policy=symmetric", "--out", str(tmp_path)) == EXIT_OK
    curve = outputs(tmp_path, "trading-curve", 2)[0].read_text().splitlines()
    assert curve[0] == "t,q_mean,q_std"
    assert len(curve) == 202  # header + snapshots at every step 0..200


def test_policy_misuse_is_not_a_config_error():
    # symmetric is built only from a pre-run; asking _policy for it is a bug,
    # which must surface with a traceback rather than as exit 2
    cfg = load_config()
    with pytest.raises(LookupError):
        _policy(cfg, _sim_config(cfg), "symmetric")
    assert not issubclass(LookupError, (ConfigError, ValueError, RuntimeError))

def test_compare_table_columns(tmp_path):
    assert run_cli("compare", "--paths", "60", "--seed", "4", "--out", str(tmp_path)) == EXIT_OK
    rows = outputs(tmp_path, "compare", 4)[0].read_text().splitlines()
    assert rows[0] == "Strategy,Average Spread,Profit,Std (Profit),q_T,Std (q_T)"
    assert rows[1].startswith("Inventory,") and rows[2].startswith("Symmetric,")
    assert len(rows) == 3


def test_price_option_output(tmp_path):
    assert run_cli("price-option", "--seed", "1", "--set", "pricing.n_s=41",
                   "--set", "pricing.n_nu=9", "--set", "pricing.n_time=60",
                   "--out", str(tmp_path)) == EXIT_OK
    rows = outputs(tmp_path, "price-option", 1)[0].read_text().splitlines()
    assert rows[0] == "s,nu,t,C,P,delta,gamma,c_nu"
    assert len(rows) == 1 + 41 * 9


def test_option_mm_output(tmp_path):
    assert run_cli("option-mm", "--seed", "1", "--set", "option_mm.n_paths=40",
                   "--set", "option_mm.dt=0.005", "--set", "option_mm.lattice_paths=1000",
                   "--set", "pricing.n_s=81", "--set", "pricing.n_nu=16",
                   "--set", "pricing.n_time=100",
                   "--out", str(tmp_path)) == EXIT_OK
    rows = outputs(tmp_path, "option-mm", 1)[0].read_text().splitlines()
    assert rows[0].startswith("mode,n,z_mean,q_o_mean")
    lattice = sorted(tmp_path.glob("option-mm-*-lattice.csv"))[0].read_text().splitlines()
    assert lattice[0] == "s,nu,t,H1,H2,M"


def test_option_mm_lattice_does_not_depend_on_the_seed(tmp_path):
    small = ["--set", "option_mm.n_paths=40", "--set", "option_mm.dt=0.01",
             "--set", "pricing.n_s=81", "--set", "pricing.n_nu=16", "--set", "pricing.n_time=100"]
    tables = []
    for seed in ("1", "2"):
        assert run_cli("option-mm", "--seed", seed, *small, "--out", str(tmp_path)) == EXIT_OK
        tables.append(sorted(tmp_path.glob(f"option-mm-*-{seed}-lattice.csv"))[0].read_text())
    assert tables[0] == tables[1]
    assert "-0.0" not in {cell for row in tables[0].splitlines() for cell in row.split(",")}
