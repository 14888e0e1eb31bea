"""Hot loops, grid builds and training's gradient bookkeeping call ufuncs
and C methods, never NumPy's Python wrappers.

On the (8, 2) arrays of a step, a wrapper such as np.sum, np.shape,
ndarray.all or np.zeros_like costs 2-6x the ufunc or C call it wraps.  Each
case runs once to warm up (the schedule caches sigma_T, the draw loop
fills its idle list), then once under sys.setprofile, and fails if it
entered any function defined in NumPy's fromnumeric.py, _methods.py or
numeric.py.  The one-frame dispatchers in multiarray.py of C functions
such as vdot, dot and concatenate are allowed.
"""

import sys

import numpy as np
import pytest
from numpy._core import _methods, fromnumeric, numeric

from steplab import config
from steplab.discretize import Discretization, heuristic_times
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import (SolverSpec, checked_shared, initial_state,
                             make_steps, shared_map)
from steplab.training import pair_grads

WRAPPER_FILES = {m.__file__ for m in (fromnumeric, _methods, numeric)}
SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
SPECS = {"euler1": ("euler", 1), "dpmpp2": ("dpmpp", 2),
         "ipndm4": ("ipndm", 4)}
B = 8


def wrappers_entered(fn):
    """The NumPy wrapper functions a warm call of fn enters, by name."""
    fn()
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in WRAPPER_FILES:
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def step_call(sched, spec_name, mode):
    """A call that runs one step (step 1, so history slots are live) of
    the default GM on B rows, in the given mode, or a whole march."""
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec(*SPECS[spec_name], nfe=4)
    shared = checked_shared(den, sched, spec,
                            heuristic_times("logsnr", sched, 4))
    x = sample_prior(sched, den.d, B, seed=3)
    if mode == "march":
        march = shared_map(den, spec, shared)
        return lambda: (march(x), march(x, jacobian=True))
    if mode == "jacobian":
        eye = np.broadcast_to(np.eye(den.d), x.shape + (den.d,))
        state = initial_state(spec, np.concatenate([x[:, None], eye], axis=1))
        step = make_steps(den, spec, jacobian=True)[1]
        return lambda: step(state, shared)
    state = initial_state(spec, x)
    step = make_steps(den, spec)[1]
    if mode == "cold":
        return lambda: step(state, shared)
    acc = {j: np.zeros(shared[j].shape) for j in range(3)}

    def transposed():
        new, back = step(state, shared, acc)
        return back(new)

    return transposed


@pytest.mark.parametrize("mode", ["cold", "jacobian", "transposed", "march"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_a_step_enters_no_numpy_wrapper(sched_name, spec_name, mode):
    call = step_call(SCHEDS[sched_name], spec_name, mode)
    assert wrappers_entered(call) == []


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_a_cold_grid_build_enters_no_numpy_wrapper(sched_name, spec_name):
    sched = SCHEDS[sched_name]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec(*SPECS[spec_name], nfe=4)
    times = heuristic_times("logsnr", sched, 4)
    assert wrappers_entered(
        lambda: checked_shared(den, sched, spec, times)) == []


@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_sample_prior_enters_no_numpy_wrapper(sched_name):
    sched = SCHEDS[sched_name]
    assert wrappers_entered(lambda: sample_prior(sched, 2, B, seed=5)) == []


@pytest.mark.parametrize("grid", ["learned", "frozen"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_pair_grads_enters_no_numpy_wrapper(sched_name, grid):
    """One dpmpp2 training call on B pairs: a learned grid tapes its
    prelude (softmax, suffix sums, clamp) and sweeps back through it; a
    frozen grid's call tapes x_prime alone.  Both seed the sweep with
    ones and read the loss back."""
    sched = SCHEDS[sched_name]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec("dpmpp", 2, nfe=4)
    disc = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, 4))
    x = sample_prior(sched, den.d, B, seed=3)
    shared = None if grid == "learned" else \
        checked_shared(den, sched, spec, disc.times(), disc.times_c())
    assert wrappers_entered(lambda: pair_grads(
        disc, den, sched, spec, x, 0.5 * x, True, shared)) == []
