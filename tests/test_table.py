"""The table writer against a cell-by-cell ``csv.writer`` reference.

The reference functions below are the CSV writers as they were before every
table went through ``write_table``: they format one cell at a time.  Each
writer must still produce their bytes.
"""

import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hestonmm import cli, table
from hestonmm.hjb import HjbConfig, compare_exact_vs_approx, solve_stock_hjb, write_grid_csv, write_report_csv
from hestonmm.option_mm import FunctionalLattice, write_lattice_csv
from hestonmm.option_pricing import (
    C,
    PricingConfig,
    default_nu_grid,
    default_s_grid,
    solve_call_grid,
    write_slice_csv,
)
from hestonmm.quotes import inventory_premiums
from hestonmm.table import write_table


def reference_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([x if isinstance(x, (str, int)) else repr(float(x)) for x in row])


def reference_grid(grid, path):
    cfg = grid.config
    approx_a, approx_b = inventory_premiums(
        grid.q_levels.astype(np.float64)[:, None, None], grid.nu_grid[None, :, None],
        grid.times[None, None, :], cfg.T, cfg.heston, cfg.arrival, cfg.risk,
    )
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "nu", "t", "V", "delta_a_exact", "delta_b_exact",
                    "delta_a_approx", "delta_b_approx"])
        for iq, qv in enumerate(grid.q_levels):
            for inu, nuv in enumerate(grid.nu_grid):
                for it, tv in enumerate(grid.times):
                    w.writerow([
                        int(qv), repr(float(nuv)), repr(float(tv)),
                        repr(float(grid.values[iq, inu, it])),
                        repr(float(grid.quotes_a[iq, inu, it])),
                        repr(float(grid.quotes_b[iq, inu, it])),
                        repr(float(approx_a[iq, inu, it])),
                        repr(float(approx_b[iq, inu, it])),
                    ])


def reference_report(report, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "max_quote_gap_a", "max_quote_gap_b", "sandwich_ok", "c_emp", "tol",
            "gap_a_q", "gap_a_nu", "gap_a_t", "gap_b_q", "gap_b_nu", "gap_b_t",
        ])
        w.writerow([
            repr(report.max_quote_gap_a), repr(report.max_quote_gap_b),
            int(report.sandwich_ok), repr(report.c_emp), repr(report.tol),
            report.gap_a_at[0], repr(report.gap_a_at[1]), repr(report.gap_a_at[2]),
            report.gap_b_at[0], repr(report.gap_b_at[1]), repr(report.gap_b_at[2]),
        ])


def reference_slice(grid, path, t_values):
    k = grid.config.strike
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "nu", "t", "C", "P", "delta", "gamma", "c_nu"])
        for t in t_values:
            dp, gp, vp = grid.greek_planes(t)
            plane = grid._time_slice(t)[:, :, C]
            for i, sv in enumerate(grid.s_grid):
                for j, nuv in enumerate(grid.nu_grid):
                    c = plane[i, j]
                    w.writerow([
                        repr(float(sv)), repr(float(nuv)), repr(float(t)),
                        repr(float(c)), repr(float(c - (sv - k))),
                        repr(float(dp[i, j])), repr(float(gp[i, j])), repr(float(vp[i, j])),
                    ])


def reference_lattice(lattice, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "nu", "t", "H1", "H2", "M"])
        for i, sv in enumerate(lattice.s_nodes):
            for j, nv in enumerate(lattice.nu_nodes):
                for k, tv in enumerate(lattice.t_nodes):
                    w.writerow([
                        repr(float(sv)), repr(float(nv)), repr(float(tv)),
                        *(repr(float(v)) for v in lattice.table[k, i, j]),
                    ])


@pytest.fixture(scope="module")
def value_grid(heston, arrival, risk):
    # 5 x 7 x 51 = 1785 rows: the table spans two write chunks
    return solve_stock_hjb(HjbConfig(heston=heston, arrival=arrival, risk=risk, T=1.0,
                                     q_min=-2, q_max=2, nu_lo=0.0, nu_hi=12.0, n_nu=7,
                                     n_time=50))


@pytest.fixture(scope="module")
def coarse_pricing_grid(heston):
    return solve_call_grid(PricingConfig(
        heston=heston, strike=100.0, T=1.0, s_grid=tuple(default_s_grid(heston, 1.0, 21)),
        nu_grid=tuple(default_nu_grid(heston, 1.0, 6)), n_time=40))


def _summary_rows():
    # the shapes of the CLI's summary tables: a string, ints, floats and
    # numpy floats in one row
    return [("hedged", 1000, np.float64(68.51355928149175), -0.472, 0.1 + 0.2, 0),
            ("joint", 7, float("nan"), -0.0, 1e-300, 3)]


def _cases(value_grid, coarse_pricing_grid):
    times = coarse_pricing_grid.times
    t_values = [0.0, 0.5 * (times[3] + times[4])]  # the second lies between stored slices
    rng = np.random.default_rng(3)
    shape = (3, 2, 2, 3)  # (t, s, nu) nodes, then (H1, H2, M)
    lattice = FunctionalLattice(np.array([88.0, 112.0]), np.array([0.5, 9.0]), np.array([0.0, 0.5, 1.0]),
                                rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 3, shape))
    report = compare_exact_vs_approx(value_grid, tol=1e-3)
    rows = _summary_rows()
    header = ["mode", "n", "z_mean", "q_o_mean", "qv_mean", "clipped"]
    return {
        "cli._write_rows": (lambda p: cli._write_rows(p, header, zip(*rows)),
                            lambda p: reference_rows(p, header, rows)),
        "hjb.write_grid_csv": (lambda p: write_grid_csv(value_grid, p),
                               lambda p: reference_grid(value_grid, p)),
        "hjb.write_report_csv": (lambda p: write_report_csv(report, p),
                                 lambda p: reference_report(report, p)),
        "option_pricing.write_slice_csv": (
            lambda p: write_slice_csv(coarse_pricing_grid, p, t_values=t_values),
            lambda p: reference_slice(coarse_pricing_grid, p, t_values)),
        "option_mm.write_lattice_csv": (lambda p: write_lattice_csv(lattice, p),
                                        lambda p: reference_lattice(lattice, p)),
    }


WRITERS = ["cli._write_rows", "hjb.write_grid_csv", "hjb.write_report_csv",
           "option_pricing.write_slice_csv", "option_mm.write_lattice_csv"]


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_matches_cell_by_cell_reference(writer, value_grid, coarse_pricing_grid, tmp_path):
    write, reference = _cases(value_grid, coarse_pricing_grid)[writer]
    write(tmp_path / "new.csv")
    reference(tmp_path / "ref.csv")
    new, ref = (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()
    assert ref.count(b"\r\n") > 1
    assert new == ref


def test_write_table_edge_values_match_csv_writer(tmp_path):
    floats = [float("nan"), math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
    ints = [0, -1, np.int64(2**62), np.int32(-7), 10**18, np.uint8(255), -(2**63)]
    strings = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " padded "]
    write_table(tmp_path / "new.csv", ["f", "i,j", 's "q"'], [floats, ints, strings])
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f", "i,j", 's "q"'])
        w.writerows(zip(floats, ints, strings))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=6) | st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\r", " "])
_VALUES = {
    "float": st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "str": _TEXT,
}


@st.composite
def _tables(draw):
    """A table shape and columns of one kind each whose shapes broadcast to
    it: an axis of the column is the table's or 1, and leading axes may be
    missing, down to a scalar."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(_VALUES)))
        ndim = draw(st.integers(0, len(shape)))
        col_shape = tuple(n if draw(st.booleans()) else 1 for n in shape[len(shape) - ndim:])
        values = draw(st.lists(_VALUES[kind], min_size=math.prod(col_shape),
                               max_size=math.prod(col_shape)))
        dtype = {"float": np.float64, "int": np.int64, "bool": bool, "str": str}[kind]
        columns.append(np.array(values, dtype=dtype).reshape(col_shape))
    header = draw(st.lists(_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@given(table=_tables())
@settings(max_examples=200, deadline=None)
def test_write_table_equals_a_csv_writer_row_loop(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("t")
    write_table(path / "new.csv", header, columns)
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    with open(path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns)):
            w.writerow(row)
    assert (path / "new.csv").read_bytes() == (path / "ref.csv").read_bytes()


def test_columns_broadcast_in_c_order(tmp_path):
    # a grid of 2 x 3 x 1500 rows: axes shaped to broadcast, one value array,
    # and a constant; the rows cross several write chunks
    values = np.arange(2 * 3 * 1500, dtype=np.float64).reshape(2, 3, 1500)
    a, b, c = np.array([-1, 1]), np.array([0.5, 1.5, 2.5]), np.linspace(0.0, 1.0, 1500)
    write_table(tmp_path / "g.csv", ["a", "b", "c", "v", "k"],
                [a[:, None, None], b[None, :, None], c, values, "const"])
    with open(tmp_path / "g.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == values.size
    for i, j, k in [(0, 0, 0), (0, 2, 1023), (1, 0, 1024), (1, 2, 1499)]:
        row = rows[np.ravel_multi_index((i, j, k), values.shape)]
        assert row == [str(a[i]), repr(float(b[j])), repr(float(c[k])),
                       repr(float(values[i, j, k])), "const"]


def test_write_table_one_row_of_scalars(tmp_path):
    write_table(tmp_path / "r.csv", ["mode", "n", "z"], ["joint", 40, 0.25])
    assert (tmp_path / "r.csv").read_bytes() == b"mode,n,z\r\njoint,40,0.25\r\n"


def test_write_table_rejects_bad_columns(tmp_path):
    with pytest.raises(ValueError, match="broadcast"):
        write_table(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="header"):
        write_table(tmp_path / "x.csv", ["a"], [[1.0], [2.0]])
    with pytest.raises(TypeError, match="dtype"):
        write_table(tmp_path / "x.csv", ["a"], [[1.0, "a", None]])


def test_only_the_table_module_uses_csv():
    src = Path(table.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"^\s*(import csv|from csv import)", p.read_text(), re.M))
    assert users == ["table.py"]
