"""SCF iteration counts of every bundled solve, against a recorded ceiling.

The ceilings are the counts taken with the dielectric step gated at a
density residual of 1e-2 and each GMRES cycle solved to rtol 1e-2, the
settings before ``scf.PRECOND_THRESHOLD`` 5e-2 and ``scf.PRECOND_RTOL``
1e-3.  A change of the mixer or of its constants must not make any of
these solves take more iterations.
"""

import pytest

from mks import harness
from mks.config import RunConfig
from mks.harness import run_single

# config -> {beta: (reference, then each swept cutoff in order)}
SWEEP_ITERATIONS = {
    "free1d": {
        2.0: (2, 2, 2, 2, 2, 2),
        20.0: (2, 2, 2, 2, 2, 2),
        200.0: (2, 2, 2, 2, 2, 2),
    },
    "si1d": {
        4.0: (12, 7, 7, 5, 5, 5),
        40.0: (19, 10, 9, 6, 6, 6),
        400.0: (35, 18, 19, 12, 6, 6),
    },
    "rhf1d": {
        4.0: (12, 8, 6, 5, 5, 5),
        40.0: (19, 10, 9, 6, 6, 6),
        400.0: (36, 20, 17, 6, 6, 6),
    },
    "tiny3d": {
        2.0: (8, 6, 6, 6, 7),
        20.0: (9, 6, 7, 8, 8),
        200.0: (10, 7, 8, 8, 8),
    },
}

# mks scf: the configured cutoff and beta, from the uniform density
SCF_ITERATIONS = {"free1d": 2, "si1d": 18, "rhf1d": 18, "tiny3d": 8}

# low-temperature starts from the uniform density, at the configured cutoff
COLD_START_ITERATIONS = [
    ("si1d", 1e3, 42),
    ("si1d", 1e4, 58),
    ("rhf1d", 1e3, 33),
    ("rhf1d", 2e3, 68),
    ("rhf1d", 4e3, 116),
    ("rhf1d", 1e4, 156),
]


@pytest.mark.parametrize("name", sorted(SWEEP_ITERATIONS))
def test_no_swept_point_takes_more_iterations(name):
    cfg = RunConfig.from_file(name)
    ceilings = SWEEP_ITERATIONS[name]
    assert sorted(ceilings) == sorted(cfg.sweep_betas)
    for beta, ceiling in ceilings.items():
        cutoffs, _, ref, swept = harness._swept_solves(cfg, None, None, beta)
        counts = (ref.iterations, *(state.iterations for state, _, _ in swept))
        assert len(counts) == len(ceiling) == len(cutoffs) + 1
        assert all(c <= top for c, top in zip(counts, ceiling)), (beta, counts)


@pytest.mark.parametrize("name", sorted(SCF_ITERATIONS))
def test_no_bundled_scf_takes_more_iterations(name):
    assert run_single(RunConfig.from_file(name)).iterations <= SCF_ITERATIONS[name]


@pytest.mark.parametrize("name, beta, ceiling", COLD_START_ITERATIONS)
def test_no_cold_start_takes_more_iterations(name, beta, ceiling):
    assert run_single(RunConfig.from_file(name), beta=beta).iterations <= ceiling
