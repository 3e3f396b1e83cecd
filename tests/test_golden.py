"""Golden output digests: fixed CLI configs must keep their exact bytes.

Each case runs the CLI in-process and compares the SHA-256 of its output
files with digests recorded before the closed-form potential tables replaced
the per-destination BFS; the two 16x16 cases on the acceptance grid were
recorded before the step-level forwarding API and the unreachable egress
branches were deleted. A change to an engine, a table, the sampling or the
rendering that moves any number changes a digest. Re-record a digest only
for a deliberate change of output, and say so where the change is described.
"""

import hashlib

import pytest

from torusflow.cli import log_spaced, main

# the acceptance tests' 20-point grid, passed as explicit values
ACCEPTANCE_GRID = ",".join(repr(p) for p in log_spaced(0.0001, 1.0, 20))

CASES = {
    "bond16_acceptance_grid": (
        f"--rows 16 --cols 16 --mode bond --p {ACCEPTANCE_GRID} "
        "--replicates 10 --packets-per-replicate 100 --seed 0",
        {
            "aggregate.csv":
                "a101a0346cfc608fb54211adf4a2aa4015445f5110a4608320eed0afd665e120",
        },
    ),
    "site16_acceptance_grid": (
        f"--rows 16 --cols 16 --mode site --p {ACCEPTANCE_GRID} "
        "--replicates 10 --packets-per-replicate 100 --seed 0",
        {
            "aggregate.csv":
                "29c95c043a231e919263ae90eaee4a905e64682eda3e72fdd77fee0fe4c617f2",
        },
    ),
    "bond9x12_sst3": (
        "--rows 9 --cols 12 --mode bond --sst 3 --p 0.02,0.08,0.2 "
        "--replicates 30 --packets-per-replicate 40 --seed 7",
        {
            "aggregate.csv":
                "5c866374bc1fe1b5322fb69a92206641cb1d608be275a685909bba0920ea1eba",
        },
    ),
    "site5x7": (
        "--rows 5 --cols 7 --mode site --p 0.05,0.15,0.3 "
        "--replicates 30 --packets-per-replicate 40 --seed 3 --dump-traces",
        {
            "aggregate.csv":
                "5fcb2749f1057b44b83da59db730166c499944ccd8148e7ba725c30272779dca",
            "traces.csv":
                "1d933a3b92556db2e857e0e09195744a5861f7cbf95b25c87e85f15375870a1c",
        },
    ),
    # 130 RF_CF and 51 RF_LF routes run to the ttl, so the traces pin the
    # loop-cut period copies of traced routes
    "bond8_traces": (
        "--rows 8 --cols 8 --mode bond --p 0.05,0.15 "
        "--replicates 20 --packets-per-replicate 30 --seed 11 --dump-traces",
        {
            "aggregate.csv":
                "d68d0f496e0bc2093355f2c6662967e44f4c7b81f3154c25a640ef406731d2fa",
            "traces.csv":
                "4305a8f0f6f474f877253cbef093371f5ef53e7d2a32910896a70550f9a5d9ac",
        },
    ),
    # 457 traces, 23 of them longer than the dump's 2,048-hop render chunk,
    # so chunk boundaries fall inside traces; both digests were recorded
    # while the dump was still rendered one whole replicate at a time
    "bond8_long_ttl": (
        "--rows 8 --cols 8 --mode bond --p 0.15 --replicates 4 "
        "--packets-per-replicate 30 --seed 11 --ttl 5000 --dump-traces",
        {
            "aggregate.csv":
                "40048c8921185376e9f331f2fd6745dfa41b8603320f752f52ec2e1686dbfc41",
            "traces.csv":
                "fa84097896143055720b363182f052701f42d06234b586f41d13eda339d1d8aa",
        },
    ),
    # 320 routed pairs to 308 distinct destinations on a 64x64 torus, all
    # served by the one set of base tables for the shape
    "site64_low": (
        "--rows 64 --cols 64 --mode site --regime low --points 4 "
        "--replicates 8 --packets-per-replicate 10 --seed 0",
        {
            "aggregate.csv":
                "f9dfc2d06f29a1350f93ec7481546cfedde040418797284413267ce8055505ed",
        },
    ),
}


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    args, digests = CASES[name]
    assert main(args.split() + ["--out-dir", str(tmp_path)]) == 0
    got = {file: sha256(tmp_path / file) for file in digests}
    assert got == digests
