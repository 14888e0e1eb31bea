"""Recorded sha256 digests of solver and chain-gradient outputs.

The step/denoiser contract (per-grid step constants, queried by row) can be
refactored without moving a single output bit; these digests, recorded
before the time-queried path was removed, catch a change that does.
"""

import hashlib

import numpy as np
import pytest

from steplab.denoisers import GMDenoiser, PointDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import SolverSpec, solve, solver_map
from steplab.training import pair_grads

SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
WEIGHTS = np.array([0.5, 0.3, 0.2])
MEANS = np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]])
VARS = np.array([0.25, 0.16, 0.36])


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, np.float64).tobytes())
    return h.hexdigest()


def make_den(kind, sched):
    if kind == "gm":
        return GMDenoiser.create(sched, WEIGHTS, MEANS, VARS)
    return PointDenoiser.create(sched, np.array([1.0, -1.0]))


SOLVE_DIGESTS = {
    ("ve", "gm", "euler1"):
        "7ee0e899bcc57be2ad068bc2dba6b22c287bd77d7ab39f15b8bc1ff03d780061",
    ("ve", "gm", "dpmpp2"):
        "d1938863955e5f2f7837f36e086b9965138f254982f02734d525def43c246bc0",
    ("ve", "gm", "ipndm4"):
        "cf7919ca4539bdc87f9d856ee0c2fd365310538cc01a9a2182aca56c9f7e9fc7",
    ("ve", "point", "euler1"):
        "610571175f2deac19ccb92d3e1e8fc6e24548bd6fe92cac4ef02d9ec84698387",
    ("ve", "point", "dpmpp2"):
        "942d8dea78ebab34290f86b0370c1b98615b7a165b346d043499faf5c93b400d",
    ("ve", "point", "ipndm4"):
        "45ad48d9f09403561e525af8bb14d80df601530d9097459fdfa9093984feb4d8",
    ("vp", "gm", "euler1"):
        "c9b4c70de2589a5a31ece397b388927d9a9462aa52c25cd5055f104355ab3016",
    ("vp", "gm", "dpmpp2"):
        "3f7f37497571a57c4ad1664b9fb383e06f8ba86cdaeeaf5437d275158ee4ab8f",
    ("vp", "gm", "ipndm4"):
        "d885964ce635c28e3ee0d6d067ed3d4181049977e5e9287e69eb868de08e1570",
    ("vp", "point", "euler1"):
        "7a878d50d47ef046b3db2b9650262d2848c38b32349331062ee1012f011ea071",
    ("vp", "point", "dpmpp2"):
        "296cf31bf6837b39bad0fc0deb283998c225d71b3f38eac60baa1790aa55bedb",
    ("vp", "point", "ipndm4"):
        "c77b6b9887a4a187d76b559c300ce1d542c7ab947b98f99bda020290065ba159",
}


@pytest.mark.parametrize("sched_name,kind,solver", sorted(SOLVE_DIGESTS))
def test_solve_outputs_match_recorded_digests(sched_name, kind, solver):
    """NFE 6, query times off the grid: the solve and the Jacobian mode's
    stacked final slot."""
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=solver[:-1], order=int(solver[-1]), nfe=6)
    times = heuristic_times("logsnr", sched, 6)
    times_c = np.clip(times * 1.01, sched.t_min, sched.T)
    x = sample_prior(sched, 2, 4, 17)
    out = solve(den, sched, spec, times, times_c, x)
    jac = solver_map(den, sched, spec, times, times_c)(x, True)
    assert sha(out, jac) == SOLVE_DIGESTS[sched_name, kind, solver]


PAIR_GRADS_DIGESTS = {
    "ve": "c4a1f938efe3c06677ef63c68260dd9ef5e342ebdf88137c707149d60e0d0c84",
    "vp": "edd0262743ceee6c592f7d44df1c1ee22c4417bb1fb62b6b575327dd75f0afb6",
}


@pytest.mark.parametrize("sched_name", sorted(PAIR_GRADS_DIGESTS))
def test_checkpointed_pair_grads_match_recorded_digest(sched_name):
    """dpmpp2 at NFE 4 on three pairs: the losses and every gradient."""
    sched = SCHEDS[sched_name]
    den = make_den("gm", sched)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    base = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, 4))
    disc = Discretization.create(sched, 4, xi=base.xi,
                                 xi_c=np.array([-0.02, 0.01, -0.01, 0.0, 0.0]))
    x = sample_prior(sched, 2, 3, 18)
    res = pair_grads(disc, den, sched, spec, x, 0.5 * x)
    assert sha(res.loss, res.grads["xi"], res.grads["xi_c"],
               res.grads["x_prime"]) == PAIR_GRADS_DIGESTS[sched_name]
