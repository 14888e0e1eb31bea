"""Recorded sha256 digests of solver and chain-gradient outputs.

The step/denoiser contract (per-grid step constants, queried by row) can be
refactored without moving a single output bit; these digests, recorded
before the time-queried path was removed, catch a change that does.  The
point-mass pins were re-recorded when the point mass became the
one-component mixture at variance 0, which moves its solves by rounding.
The mixture pins were re-recorded when the responsibilities came to be
taken from one exp pass (e / sum e) instead of exp(terms - logsumexp),
which moves every K >= 2 epsilon by rounding; a one-component gamma is 1
exactly either way, so the point-mass pins stayed.  The pair_grads pins
were re-recorded when the learned grid lost its dead coordinates (N logits
and N query offsets, not N + 1), which moves tau and its gradients by
rounding; the solve pins stayed, given the same N query times.  They were
re-recorded again when the learned grid's prelude came to be differentiated
by closed-form transposes (of tau, the query times' clamp, the table and
alpha_i, sigma_i) in place of a tape of its fine ops: the xi gradients
moved by up to 2.7e-13 (VE, 2.4e-15 relative) and xi_c's by 8.9e-16 (VP),
while the losses and x_prime gradients kept their bits.
"""

import hashlib

import numpy as np
import pytest

from pointmass import point_mass
from steplab.denoisers import GMDenoiser
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
    return point_mass(sched, np.array([1.0, -1.0]))


SOLVE_DIGESTS = {
    ("ve", "gm", "euler1"):
        "f2d185fb2377d90f527eac39e0faea51a101087fbb3f5b26c6dd50b6fb62f851",
    ("ve", "gm", "dpmpp2"):
        "05a2b540d928a35c1cf0ce675b776b1727620ec76883528d7d54a7b86d44907f",
    ("ve", "gm", "ipndm4"):
        "d36a445111875c42819cefd7879e37da74d2282f663dfa327b753055f6900f3a",
    ("ve", "point", "euler1"):
        "2e5295337f129e8703aebeee03958c998c21f6769bc223ec323376ae75c74904",
    ("ve", "point", "dpmpp2"):
        "ae3017c7d690f3787f6d19218eddce7b79ec6ff963338673d71493b8db1533b3",
    ("ve", "point", "ipndm4"):
        "3752a89ebea3bb221361392e5caca296454b954bc4ccaf6cabb9446395a1f708",
    ("vp", "gm", "euler1"):
        "634b387ac431a0765c8c529b491be620cc1bb13140c5eddbc1eb0e4957bf25f6",
    ("vp", "gm", "dpmpp2"):
        "93ce3abc4fc310d60e9212b0326717f29909f10bc96bf3937d9c988e498106f9",
    ("vp", "gm", "ipndm4"):
        "32b7224ab6c8d15629068bad22c853edd04bac9a157ad5211d370d1f469587f1",
    ("vp", "point", "euler1"):
        "dd3c38f8dfbf8b323e1d7aa59b6139452d540cf8ba055302c91291bd093316e8",
    ("vp", "point", "dpmpp2"):
        "9b3a7ca7970cbfde8299b9821d1f3e9a1329adb35f4ac08d248da629700e67ef",
    ("vp", "point", "ipndm4"):
        "94bd2f93022d1a3c5a9097490003a1211c6829931bb026c588f0a183a78bab9e",
}


@pytest.mark.parametrize("sched_name,kind,solver", sorted(SOLVE_DIGESTS))
def test_solve_outputs_match_recorded_digests(sched_name, kind, solver):
    """NFE 6, query times off the grid: the solve and the Jacobian mode's
    stacked final slot."""
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=solver[:-1], order=int(solver[-1]), nfe=6)
    times = heuristic_times("logsnr", sched, 6)
    times_c = np.clip(times * 1.01, sched.t_min, sched.T)[:-1]
    x = sample_prior(sched, 2, 4, 17)
    out = solve(den, sched, spec, times, times_c, x)
    jac = solver_map(den, sched, spec, times, times_c)(x, True)
    assert sha(out, jac) == SOLVE_DIGESTS[sched_name, kind, solver]


PAIR_GRADS_DIGESTS = {
    "ve": "e5990e83c00c615fe1de2d1770cfc852457da7ca33c28de6bd19f0077c696794",
    "vp": "a6cdf92d54c1389b7168219a21316048cc8d26339fee37429266007624a30586",
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
                                 xi_c=np.array([-0.02, 0.01, -0.01, 0.0]))
    x = sample_prior(sched, 2, 3, 18)
    res = pair_grads(disc, den, sched, spec, x, 0.5 * x)
    assert sha(res.loss, res.grads["xi"], res.grads["xi_c"],
               res.grads["x_prime"]) == PAIR_GRADS_DIGESTS[sched_name]
