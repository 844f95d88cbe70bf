"""Pinned artifacts: the sha256 of every CSV that ``simulate`` (the inventory
book and both impact variants) and ``compare`` write at 300 paths, and that
``hjb`` (with and without the impact term), ``price-option`` (with and without
a volatility risk price) and ``option-mm`` (both books) write at the small
grids of criterion 11, all at seed 42.

A change that keeps every output bit passes this unchanged.  A change that
moves values on purpose updates the hashes here and says so in CHANGES.md.
The hashes are of this numpy build's float64 results, formatted by ``repr``.
"""

import hashlib

import pytest

from hestonmm.cli import EXIT_OK, main

HJB_BOX = ["--set", "hjb.q_min=-5", "--set", "hjb.q_max=5", "--set", "hjb.n_nu=13",
           "--set", "hjb.n_time=400"]
SMALL_PRICER = ["--set", "pricing.n_s=41", "--set", "pricing.n_nu=9", "--set", "pricing.n_time=60"]
SMALL_BOOKS = ["--set", "option_mm.n_paths=20", "--set", "option_mm.dt=0.01",
               "--set", "option_mm.lattice_n_s=3", "--set", "option_mm.lattice_n_nu=3",
               "--set", "option_mm.lattice_n_t=3", "--set", "pricing.n_s=81",
               "--set", "pricing.n_nu=16", "--set", "pricing.n_time=100"]
IMPACT = ["--set", "sim.impact=true", "--set", "sim.policy=impact"]
LATTICE = "2f3f51ece30f65985f3c86d614ab46f30d4cf9a6b446f78a4af8f58be8663d11"

# run -> (argv, {file suffix after the seed: sha256})
GOLDEN = {
    "simulate": (["simulate", "--paths", "300"], {
        ".csv": "bec409ecc787e174cab26cb5fab94b5874a00cc6200acfe5c016940a8b27d4da",
        "-series.csv": "6ff6e630e362382ddcb39d5e0557c57f41e89d781ec977d2bec5e47e8a338f75",
    }),
    "simulate-impact": (["simulate", "--paths", "300", *IMPACT], {
        ".csv": "f00427b99914c81ceb8f5669ff9c5863b9e15539a7a4940fd2f482d647036cd4",
        "-series.csv": "beaf222d736e5e5c5f11ac357361ec067aa32c633126470144879598804a85e6",
    }),
    "simulate-impact-plain": (["simulate", "--paths", "300", *IMPACT,
                               "--set", "sim.impact_variant=plain"], {
        ".csv": "eea97e5040fa9900d54e4fa90c2b432bc8bbe48ce62206a227b76f7001ec7624",
        "-series.csv": "430100f6a335b57845d7bdecf4f25b179b2d8d916ace605d2ab12370c171e640",
    }),
    "compare": (["compare", "--paths", "300"], {
        ".csv": "ab73d37c5d043c05ab2e2445ef90b9bd719163cc702793561be0d7edf0bef837",
        "-hist.csv": "f5a02fb984daa0cf68a80669a330367cf57977a4b19fbfdf733c100a7fb8dbab",
    }),
    "hjb": (["hjb", *HJB_BOX], {
        ".csv": "fa23fc55fb28a5c0ac3e1c60a1e53699b0b3fc15befed469e44d0571c01ad547",
        "-grid.csv": "1fb04d7a413c2170fe2e2280b47a021d9434809d2683c3cf107d3f9429f6650b",
    }),
    "hjb-impact": (["hjb", *HJB_BOX, "--set", "hjb.include_impact=true"], {
        "-grid.csv": "2b3bde683da7e71a0080ce19096a8b35c9880afeccd072520842575e70d0eca4",
    }),
    "price-option": (["price-option", *SMALL_PRICER], {
        ".csv": "5f04fa53a1de9aa2d04a3b5ced855ea3298e0df1213fd4cfab08c3ca14e2bfa6",
    }),
    "price-option-eta-nu": (["price-option", *SMALL_PRICER, "--set", "pricing.eta_nu=0.8"], {
        ".csv": "00636b25518f972bda7947ec371c7d4d242d6a4c897ea5fc76090de73c780d35",
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
