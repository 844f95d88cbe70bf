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
        ".csv": "620aa0e342445a84fb924a5877d68a1ca663e84bbd6fb678407ab1cfe031d688",
        "-series.csv": "38c91f393e032ef662d9c03e41145da1f34d31b6a9bdf0769ac96c52faee155b",
    }),
    "simulate-impact": (["simulate", "--paths", "300", *IMPACT], {
        ".csv": "b1f09ff72cd885a113999c9adfa4a7940fd9fd6971f4f3e96352d84d0a530da2",
        "-series.csv": "1bdcb71bd2f455acdbd70e13d6d44e7021ee9a523c78f40b362672d35b9e67bd",
    }),
    "simulate-impact-plain": (["simulate", "--paths", "300", *IMPACT,
                               "--set", "sim.impact_variant=plain"], {
        ".csv": "25532e760cb9695e0632839d750fea95dcdbc5f8d58526de90c02baf35cbb372",
        "-series.csv": "934d96ea971dfec952e5ed5f9a9fe05dfc2b487b8a4ce478024a9592eafd2c5b",
    }),
    "compare": (["compare", "--paths", "300"], {
        ".csv": "3a0281f396eee64009ee48f404235baf7e295bfbcd089c61e1e8c458d9418708",
        "-hist.csv": "efba016e8957943ba11413bd77dc9c86014bbb43f329d53d5b13ba8773247ef5",
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
        ".csv": "596b7f0b6888351e00c5c51f889d64896e2d58653931f661d2dc4673f2ea172d",
        "-trace.csv": "010e8bc9f9c043484df41f3348377f1b329601c7c0c10dda4136b0731d102d6e",
        "-lattice.csv": LATTICE,
    }),
    "option-mm-joint": (["option-mm", "--no-hedged", *SMALL_BOOKS], {
        ".csv": "f78f964d28747b0ebf6c0ad31d0287791b6069a14095d9ed9474ca4483d4126b",
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
