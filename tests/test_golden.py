"""Pinned artifacts: the sha256 of every CSV that ``price-option`` and
``option-mm`` (both books) write at the small grids of criterion 11 and seed 42.

A change that keeps every output bit passes this unchanged.  A change that
moves values on purpose updates the hashes here and says so in CHANGES.md.
The hashes are of this numpy build's float64 results, formatted by ``repr``.
"""

import hashlib

import pytest

from hestonmm.cli import EXIT_OK, main

SMALL_PRICER = ["--set", "pricing.n_s=41", "--set", "pricing.n_nu=9", "--set", "pricing.n_time=60"]
SMALL_BOOKS = ["--set", "option_mm.n_paths=20", "--set", "option_mm.dt=0.01",
               "--set", "option_mm.lattice_n_s=3", "--set", "option_mm.lattice_n_nu=3",
               "--set", "option_mm.lattice_n_t=3", "--set", "pricing.n_s=81",
               "--set", "pricing.n_nu=16", "--set", "pricing.n_time=100"]
LATTICE = "2f3f51ece30f65985f3c86d614ab46f30d4cf9a6b446f78a4af8f58be8663d11"

# run -> (argv, {file suffix after the seed: sha256})
GOLDEN = {
    "price-option": (["price-option", *SMALL_PRICER], {
        ".csv": "5f04fa53a1de9aa2d04a3b5ced855ea3298e0df1213fd4cfab08c3ca14e2bfa6",
    }),
    "option-mm-hedged": (["option-mm", "--hedged", *SMALL_BOOKS], {
        ".csv": "6db8b4609e1e04f97050068238d050b1f9d31411236d3777886d9f7a0cca9f9a",
        "-trace.csv": "f146d3a222f2df3065f80969c47bebee77c000d5dd7a5bf470d1f0f80ea5b371",
        "-lattice.csv": LATTICE,
    }),
    "option-mm-joint": (["option-mm", "--no-hedged", *SMALL_BOOKS], {
        ".csv": "af58d70ee0da3fb3581031b0087272ebee8f1a4706605420a21b8e58ea0e3572",
        "-lattice.csv": LATTICE,
    }),
}


@pytest.mark.parametrize("run", GOLDEN)
def test_csv_hashes_are_pinned(tmp_path, run):
    argv, expected = GOLDEN[run]
    assert main(argv + ["--seed", "42", "--out", str(tmp_path)]) == EXIT_OK
    got = {p.name.split("-42", 1)[1]: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob("*.csv")}
    assert got == expected
