"""Hot loops, grid builds, the bound and training's gradient bookkeeping
call ufuncs and C methods, never NumPy's Python wrappers.

On the (8, 2) arrays of a step, a wrapper such as np.sum, np.shape,
ndarray.all or np.zeros_like costs 2-6x the ufunc or C call it wraps.  Each
case runs once to warm up (the schedule caches sigma_T, the draw loop
fills its idle list, a map builds its steps), then once under
sys.setprofile, and fails if it entered any function defined in NumPy's
fromnumeric.py, _methods.py, numeric.py, _twodim_base_impl.py (np.eye) or
_stride_tricks_impl.py (np.broadcast_to), or np.linalg.norm.  The
one-frame dispatchers in multiarray.py of C functions such as vdot, dot
and concatenate are allowed.  A warm step also reads its grid's prebuilt
rows: it calls neither ndarray.tolist nor engine.index.
"""

import sys

import numpy as np
import pytest
from numpy._core import _methods, fromnumeric, numeric
from numpy.lib import _stride_tricks_impl, _twodim_base_impl

from steplab import config, engine
from steplab.discretize import Discretization, heuristic_times
from steplab.evaluate import estimate_bound, log_abs_det_jacobian
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import (SolverSpec, _Tangents, checked_shared,
                             initial_state, make_steps, solver_map)
from steplab.training import pair_grads

WRAPPER_FILES = {m.__file__ for m in (fromnumeric, _methods, numeric,
                                      _twodim_base_impl, _stride_tricks_impl)}
NORM = np.linalg.norm.__wrapped__.__code__
SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
SPECS = {"euler1": ("euler", 1), "dpmpp2": ("dpmpp", 2),
         "ipndm4": ("ipndm", 4)}
B = 8


def entered(fn):
    """The Python code objects and the C functions, by name, that a warm
    call of fn enters."""
    fn()
    seen = []

    def profile(frame, event, arg):
        if event == "call":
            seen.append(frame.f_code)
        elif event == "c_call":
            seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def wrappers_entered(fn):
    """The NumPy wrapper functions a warm call of fn enters, by name."""
    return [c.co_name for c in entered(fn) if type(c) is not str
            and (c.co_filename in WRAPPER_FILES or c is NORM)]


def step_call(sched, spec_name, mode):
    """A call that runs one step (step 1, so history slots are live) of
    the default GM on B rows, in the given mode, or a whole march."""
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec(*SPECS[spec_name], nfe=4)
    times = heuristic_times("logsnr", sched, 4)
    x = sample_prior(sched, den.d, B, seed=3)
    if mode == "march":
        march = solver_map(den, sched, spec, times)
        return lambda: (march(x), march(x, jacobian=True))
    shared = checked_shared(den, sched, spec, times)
    if mode == "jacobian":
        eye = np.broadcast_to(np.eye(den.d), x.shape + (den.d,))
        state = initial_state(spec, np.concatenate([x[:, None], eye], axis=1))
        step = make_steps(_Tangents(den), spec, shared)[1]
        return lambda: step(state)
    state = initial_state(spec, x)
    step = make_steps(den, spec, shared)[1]
    if mode == "cold":
        return lambda: step(state)
    acc = {j: np.zeros(shared[j].shape) for j in range(2)}

    def transposed():
        new, back = step(state, acc)
        return back(new)

    return transposed


@pytest.mark.parametrize("mode", ["cold", "jacobian", "transposed", "march"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_a_step_enters_no_numpy_wrapper(sched_name, spec_name, mode):
    """A warm step reads its prebuilt row, too: no tolist, no en.index."""
    call = step_call(SCHEDS[sched_name], spec_name, mode)
    assert wrappers_entered(call) == []
    assert [c for c in entered(call)
            if c == "tolist" or c is engine.index.__code__] == []


@pytest.mark.parametrize("jacobian", [False, True], ids=["cold", "jacobian"])
def test_a_map_lists_its_table_once(jacobian):
    """The first march of a map lists its table in one call; the next
    march lists nothing."""
    sched = SCHEDS["vp"]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    x = sample_prior(sched, den.d, B, seed=3)
    march = solver_map(den, sched, SolverSpec("dpmpp", 2, nfe=16),
                       heuristic_times("logsnr", sched, 16))
    lists = [0, 0]  # tolist calls in the first and in the second march

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "tolist":
            lists[run] += 1

    sys.setprofile(profile)
    try:
        for run in range(2):
            march(x, jacobian)
    finally:
        sys.setprofile(None)
    assert lists == [1, 0]


@pytest.mark.parametrize("frozen", [False, True], ids=["learned", "frozen"])
def test_pair_grads_lists_its_table_once(frozen):
    """One training gradient builds its steps once: learned, the prelude's
    table is listed in one call; frozen, the caller built the steps, and
    the call lists nothing."""
    sched = SCHEDS["vp"]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec("dpmpp", 2, nfe=16)
    disc = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, 16))
    steps = make_steps(den, spec, checked_shared(
        den, sched, spec, disc.times(), disc.times_c())) if frozen else None
    x = sample_prior(sched, den.d, B, seed=3)
    calls = entered(lambda: pair_grads(disc, den, sched, spec, x, 0.5 * x,
                                       True, steps))
    assert calls.count("tolist") == (0 if frozen else 1)


@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_the_bound_enters_no_numpy_wrapper(sched_name):
    """estimate_bound and, inside it, log_abs_det_jacobian: the draws, the
    tangent marches, whose x_T is stacked over an identity built without
    np.eye or np.broadcast_to, the log-dets and the mean of the gaps."""
    sched = SCHEDS[sched_name]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    maps = [solver_map(den, sched, SolverSpec("dpmpp", 2, nfe=nfe),
                       heuristic_times("logsnr", sched, nfe))
            for nfe in (8, 4)]
    assert wrappers_entered(
        lambda: estimate_bound(*maps, sched, 0.19, den.d, 3, 5)) == []
    x = sample_prior(sched, den.d, B, seed=3)
    assert wrappers_entered(lambda: log_abs_det_jacobian(maps[0], x)) == []


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
    """One dpmpp2 training call on B pairs: a learned grid builds its
    grid cold, tapes it as a few ops and runs their closed-form transposes
    (tau's, the clamp's, the table's and the marginals'); a frozen
    grid's call, on its prebuilt steps, tapes nothing and checks x_prime's
    adjoint.  Both seed the sweep with ones and read the loss back."""
    sched = SCHEDS[sched_name]
    den = config.build_denoiser(dict(config.DEFAULTS), sched)
    spec = SolverSpec("dpmpp", 2, nfe=4)
    disc = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, 4))
    x = sample_prior(sched, den.d, B, seed=3)
    steps = None if grid == "learned" else make_steps(
        den, spec, checked_shared(den, sched, spec, disc.times(),
                                  disc.times_c()))
    assert wrappers_entered(lambda: pair_grads(
        disc, den, sched, spec, x, 0.5 * x, True, steps)) == []
