import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from hestonmm import cli, heston, hjb
from hestonmm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _policy, _sim_config, main
from hestonmm.config import apply_overrides, dump_manifest, load_config
from hestonmm.errors import ConfigError
from hestonmm.heston import HestonParams, step_count
from hestonmm.hjb import HjbConfig
from hestonmm.intensity import ArrivalParams
from hestonmm.option_pricing import PricingConfig, default_nu_grid, default_s_grid
from hestonmm.quotes import MarketImpact, RiskParams, Symmetric, inventory_coefficient
from hestonmm.sim_engine import SimConfig


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
    assert load_config(cfgfile, ["risk.gamma=0.3"]).values == cfg.values


@pytest.mark.parametrize("zero_from", ["--config", "--set"])
def test_flags_are_overrides_after_set(tmp_path, zero_from):
    # defaults < file < --set < flag, validated once: --paths replaces an
    # n_paths = 0 from the file or --set before it is checked
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("[sim]\nseed = 1\n" + ("n_paths = 0\n" if zero_from == "--config" else "")
                       + "[risk]\ngamma = 0.2\nbeta = 0.01\n")
    zero = ["--set", "sim.n_paths=0"] if zero_from == "--set" else []
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(cfgfile), "--set", "sim.seed=9",
                   "--set", "risk.beta=0.02", *zero, "--seed", "5", "--paths", "40",
                   "--out", str(out)) == EXIT_OK
    manifest = load_config(sorted(out.glob("simulate-*-5.manifest"))[0])
    assert manifest.get("sim", "seed") == 5  # flag beats --set and file
    assert [manifest.get(sec, "n_paths") for sec in ("sim", "frontier", "option_mm")] == [40] * 3
    assert manifest.get("risk", "beta") == 0.02  # --set beats file
    assert manifest.get("risk", "gamma") == 0.2  # file beats default
    assert manifest.get("risk", "eta") == 0.09  # default survives


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


@pytest.mark.parametrize("content", [
    b"[sim]\nseed = 1\nseed = 2\n",  # duplicated key
    b"seed = 1\n",  # no [section] header
    b"[sim]\nseed\n",  # a line without =
    b"[sim]\nseed = 1 # \xff\n",  # not UTF-8
    b"[sim]\npolicy = inv%entory\n",  # a bare % (configparser interpolation)
], ids=["duplicate-key", "no-section", "no-equals", "not-utf8", "bare-percent"])
def test_malformed_config_file_is_a_config_error(tmp_path, capsys, content):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(content)
    out = tmp_path / "out"
    assert run_cli("simulate", "--paths", "2", "--config", str(bad), "--out", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and str(bad) in err
    assert not out.exists() or list(out.iterdir()) == []


def test_paths_below_one_is_a_config_error(tmp_path, capsys):
    # --paths is sim.n_paths (and the other two), checked with the file and --set
    assert run_cli("simulate", "--paths", "0", "--out", str(tmp_path)) == EXIT_CONFIG
    assert "config error: sim.n_paths must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["lattice_n_s", "lattice_n_nu", "lattice_n_t"])
def test_lattice_below_two_nodes_is_a_config_error(tmp_path, capsys, monkeypatch, key):
    # rejected with the key named, before the pricing grid is solved
    solves = []
    monkeypatch.setattr(cli, "solve_call_grid", lambda *args: solves.append(args))
    assert run_cli("option-mm", "--set", f"option_mm.{key}=1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert f"config error: option_mm.{key} must be at least 2" in capsys.readouterr().err
    assert solves == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub", ["simulate", "hjb"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, sub):
    # rejected with the key named, before any draw or solve writes a file
    assert run_cli(sub, "--paths", "2", "--seed", "-1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert "config error: sim.seed must be non-negative" in capsys.readouterr().err
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


def test_a_run_in_the_same_second_leaves_the_other_runs_files(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261020T000000")
    argv = ["simulate", "--paths", "2", "--seed", "1", "--out", str(tmp_path)]
    assert main(argv + ["--set", "sim.policy=frozen"]) == EXIT_OK
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv + ["--set", "sim.dt=1.0"]) == EXIT_CONFIG
    assert f"{tmp_path / 'simulate-20261020T000000-1.csv'} already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first


def test_a_colliding_run_is_refused_before_its_work(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261020T000000")
    box = ["--set", "hjb.q_min=-2", "--set", "hjb.q_max=2", "--set", "hjb.n_nu=9",
           "--set", "hjb.n_time=100", "--out", str(tmp_path)]
    assert main(["hjb", "--seed", "3", *box]) == EXIT_OK
    # seed 4's stem is a prefix of seed 42's names, but not a run of its own
    (tmp_path / "hjb-20261020T000000-42.csv").write_text("other seed\n")
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()

    def solve(config):
        raise AssertionError("the colliding run solved before it was refused")

    monkeypatch.setattr(cli, "solve_stock_hjb", solve)
    assert main(["hjb", "--seed", "3", *box]) == EXIT_CONFIG
    assert f"{tmp_path / 'hjb-20261020T000000-3.csv'} already exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
    with pytest.raises(AssertionError, match="solved"):
        main(["hjb", "--seed", "4", *box])


def test_programming_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    def unfinished(config):
        raise NotImplementedError("solver stub")

    monkeypatch.setattr(cli, "solve_call_grid", unfinished)
    with pytest.raises(NotImplementedError):
        run_cli("price-option", "--out", str(tmp_path))


@pytest.mark.parametrize("fault", [ValueError, TypeError])
def test_a_fault_after_a_table_propagates_and_removes_the_tables(tmp_path, monkeypatch, fault):
    # a bug in the second table's write: neither a config error (exit 2) nor
    # a reason to leave the first table behind
    write = cli._write_rows
    written = []

    def write_then_fail(path, header, columns):
        if written:
            assert written[0].exists()
            raise fault("a bug in the series table")
        write(path, header, columns)
        written.append(path)

    monkeypatch.setattr(cli, "_write_rows", write_then_fail)
    with pytest.raises(fault, match="a bug in the series table"):
        run_cli("simulate", "--paths", "5", "--out", str(tmp_path))
    assert len(written) == 1
    assert list(tmp_path.glob("simulate-*")) == []


@pytest.mark.parametrize("build, user_error", [
    (lambda fx: HestonParams(theta=0.02, alpha=4.0, xi=0.5, rho=2), True),
    (lambda fx: ArrivalParams(A=0, k=1.5), True),
    (lambda fx: RiskParams(gamma=-1), True),
    (lambda fx: SimConfig(fx("heston"), fx("arrival"), fx("risk"), T=1.0, dt=0.3), True),
    (lambda fx: HjbConfig(fx("heston"), fx("arrival"), fx("risk"), T=1.0, n_nu=2), True),
    (lambda fx: PricingConfig(fx("heston"), strike=-1, T=1.0), True),
    (lambda fx: MarketImpact(fx("heston"), fx("arrival"), fx("risk"), 1.0, variant="x"), True),
    (lambda fx: Symmetric(0.0), True),
    (lambda fx: step_count(1.0, 0.3), True),
    (lambda fx: inventory_coefficient(4.0, 2.0, 1.0, fx("heston"), fx("risk")), False),
    (lambda fx: fx("pricing_grid").price(1e9, 4.0, 0.0), False),
], ids=["HestonParams", "ArrivalParams", "RiskParams", "SimConfig", "HjbConfig", "PricingConfig",
        "MarketImpact", "Symmetric", "step_count", "inventory_coefficient", "PricingGrid.price"])
def test_a_parameter_check_is_a_config_error_and_a_fault_check_is_not(request, build, user_error):
    # a value that a config key sets is the user's (exit 2); the other checks
    # are reached only through a bug, and raise a plain ValueError
    with pytest.raises(ValueError) as info:
        build(request.getfixturevalue)
    assert isinstance(info.value, ConfigError) is user_error


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_simulation_exit_and_cleanup(tmp_path, monkeypatch):
    # every path's price goes non-finite in the ensemble, before any table
    step = heston.euler_step

    def exploding(params, dt, nu, *args, **kw):
        ds, nu_next = step(params, dt, nu, *args, **kw)
        return np.full_like(ds, np.inf), nu_next

    monkeypatch.setattr(heston, "euler_step", exploding)
    code = run_cli("simulate", "--paths", "3", "--seed", "1", "--out", str(tmp_path))
    assert code == EXIT_NUMERICAL
    assert list(tmp_path.glob("simulate-*")) == []


def test_a_later_collision_removes_the_tables_already_written(tmp_path, monkeypatch, capsys):
    # a colliding run that started after this one takes the series name once
    # the terminal table is written: that table goes, the other run's file stays
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20261020T000000")
    series = tmp_path / "simulate-20261020T000000-1-series.csv"
    write = cli._write_rows

    def write_then_collide(path, header, columns):
        write(path, header, columns)
        if path.name == "simulate-20261020T000000-1.csv":
            series.write_text("the other run's series\n")

    monkeypatch.setattr(cli, "_write_rows", write_then_collide)
    assert run_cli("simulate", "--paths", "2", "--seed", "1", "--out", str(tmp_path)) == EXIT_CONFIG
    assert f"{series} already exists" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [series.name]
    assert series.read_text() == "the other run's series\n"


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
