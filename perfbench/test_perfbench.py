"""Self-test of the benchmark at its tiny size.

Every metric named in ``BENCHMARK.json`` must print with its unit, in both
modes, and every output check must reject a deliberately corrupted result.
Run from the root of the checkout with ``python3 -m pytest perfbench``.
"""

import copy
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_source()
import workloads  # noqa: E402  (needs the checkout's src on the path)

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOADS)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One tiny iteration of each workload, with its artifacts kept."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7, "tiny")
        out[name] = (wl, wl.iteration(tmp_path_factory.mktemp(name)))
        assert wl.check(out[name][1]) == [], name
    return out


def test_stock_mm_check_rejects_corruption(results):
    wl, res = results["stock-mm"]
    inv = res["table"]["Inventory"]
    for row, column, value in [
        ("Inventory", "Profit", "80.0"),  # outside the [55, 75] band
        ("Symmetric", "Std (Profit)", inv["Std (Profit)"]),  # std ratio 1 < 1.5
        ("Symmetric", "Profit", str(float(inv["Profit"]) - 5.0)),  # mean below inventory - 2 SE
        ("Inventory", "Profit", "nan"),
    ]:
        bad = copy.deepcopy(res)
        bad["table"][row][column] = value
        assert wl.check(bad), (row, column, value)


def _rewrite(src: Path, dst: Path, edit) -> Path:
    rows = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
    header = src.read_text().splitlines()[0]
    np.savetxt(dst, edit(rows.copy()), delimiter=",", header=header, comments="", fmt="%.17g")
    return dst


def test_pde_check_rejects_corruption(results, tmp_path):
    wl, res = results["pde"]

    def nan_value(a):
        a[len(a) // 2, 3] = np.nan
        return a

    def parity(a):
        a[len(a) // 2, 4] += 1.0
        return a

    corrupt = [
        {"report": {**res["report"], "sandwich_ok": "0"}},
        {"report": {**res["report"], "tol": "nan"}},
        {"grid": _rewrite(res["grid"], tmp_path / "nan.csv", nan_value)},
        {"grid": _rewrite(res["grid"], tmp_path / "short.csv", lambda a: a[:-1])},
        {"slice": _rewrite(res["slice"], tmp_path / "parity.csv", parity)},
    ]
    assert wl.check({**res, "grid": _rewrite(res["grid"], tmp_path / "same.csv", lambda a: a)}) == []
    for change in corrupt:
        assert wl.check({**res, **change}), change


def test_option_mm_check_rejects_corruption(results):
    wl, res = results["option-mm"]
    hedged = res["hedged"]
    corrupt = [
        {"mc": res["pde"] + 1.0},  # the PDE price misses the Monte Carlo oracle
        {"hedged": replace(hedged, qv_rate_real=hedged.qv_rate_real + 1.0)},  # QV identity broken
        {"hedged": replace(hedged, qv_hedged=2.0 * hedged.qv_unhedged)},  # hedging adds QV
        {"joint": replace(res["joint"], z_mean=float("nan"))},
    ]
    for change in corrupt:
        assert wl.check({**res, **change}), change


def test_artifact_fingerprint_rejects_a_changed_rerun():
    recs = [{"digest": "a", "problems": []}, {"digest": "a", "problems": []},
            {"digest": "b", "problems": []}]
    run.same_artifacts(recs)
    assert [bool(r["problems"]) for r in recs] == [False, False, True]
