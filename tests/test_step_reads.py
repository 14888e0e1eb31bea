"""Steps that read their grid's prebuilt rows equal, bit for bit, the step
that indexed the table and the step constants on every call.

`indexing_step` is that step as it stood before steps read prebuilt rows,
bound to its grid: per call it builds the denoiser row tuple, slices the
table with `en.index` and hands `en.lincomb` an array row.  Each case
marches every step of a grid whose query times are moved off the step
starts, in one of the four modes a step runs in, and compares bytes: the state after every step
(cold, tangent), the state and the adjoints of the sweep with every
accumulated table, alpha and sigma gradient (transpose), and the state and
the gradients of the grid and x_T a tape gives (taped).
"""

import numpy as np
import pytest

import steplab.engine as en
from pointmass import point_mass
from steplab import solvers
from steplab.denoisers import GMDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import (DPMPP, SolverSpec, checked_shared,
                             initial_state, make_steps)

SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
SOLVERS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
           ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]
SOLVER_IDS = [f"{f}{o}" for f, o in SOLVERS]
ROWS = 3


def indexing_step(den, spec, i, shared):
    """Step i of the grid shared as it indexed its reads on every call (the
    oracle)."""
    width = 1 + spec.history_width
    pre = 2 if spec.family == DPMPP else 0
    head, tail = (i, slice(0, pre)), (i, slice(pre, None))

    def step(state, acc=None):
        table = shared[0]
        x = state[0]
        row = tuple([c[i] for c in shared[1:]])
        if acc is None:
            eps = den.epsilon(x, row)
        else:
            eps, eps_vjp = den.epsilon(x, row, pullback=(1 in acc, 2 in acc))
        out = en.lincomb(en.index(table, head), (x, eps)) if pre else eps
        parts = (x, out) + state[1:]
        new = ((en.lincomb(en.index(table, tail), parts), out)
               + state[1:])[:width]
        if acc is None:
            return new

        def back(adj):
            g = [c * adj[0] for c in table[tail]]
            g[1:width] = [a + b for a, b in zip(adj[1:], g[1:width])]
            if 0 in acc:
                acc[0][tail] += [np.vdot(adj[0], p) for p in parts]
            g_x, g_eps = g[0], g[1]
            if pre:
                if 0 in acc:
                    acc[0][head] += [np.vdot(g_eps, x), np.vdot(g_eps, eps)]
                c_x, c_eps = table[head]
                g_x = g_x + c_x * g_eps
                g_eps = c_eps * g_eps
            g_den, g_a, g_s = eps_vjp(g_eps)
            if g_a is not None:
                acc[1][i] += g_a
            if g_s is not None:
                acc[2][i] += g_s
            return (g_x + g_den,) + tuple(g[2:])

        return new, back

    return step


def indexing_steps(den, spec, shared):
    return [indexing_step(den, spec, i, shared) for i in range(spec.nfe)]


def make_den(kind, sched):
    if kind == "gm":
        return GMDenoiser.create(sched, np.array([0.5, 0.3, 0.2]),
                                 np.array([[2.0, 1.0], [-1.4, 1.8],
                                           [0.3, -2.2]]),
                                 np.array([0.25, 0.16, 0.36]))
    return point_mass(sched, np.array([1.0, -1.0]))


def grid(sched, nfe):
    """Moved logsnr steps and query times off the step starts."""
    base = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, nfe))
    g = np.random.default_rng(nfe)
    disc = Discretization.create(
        sched, nfe, xi=base.xi + 0.2 * g.standard_normal(nfe),
        xi_c=0.01 * sched.T * g.uniform(-1, 1, nfe))
    return disc.times(), disc.times_c()


def as_bytes(state):
    return [np.asarray(en.data_of(s)).tobytes() for s in state]


def march(steps, state, trail):
    for step in steps:
        state = step(state)
        trail.append(as_bytes(state))
    return state


def cold(den, sched, spec, steps_of):
    shared = checked_shared(den, sched, spec, *grid(sched, spec.nfe))
    x = sample_prior(sched, den.d, ROWS, 7)
    trail = []
    march(steps_of(den, spec, shared), initial_state(spec, x), trail)
    return trail


def tangent(den, sched, spec, steps_of):
    shared = checked_shared(den, sched, spec, *grid(sched, spec.nfe))
    x = sample_prior(sched, den.d, ROWS, 7)
    eye = np.broadcast_to(np.eye(den.d), x.shape + (den.d,))
    xs = np.concatenate([x[:, None, :], eye], axis=1)
    trail = []
    march(steps_of(solvers._Tangents(den), spec, shared),
          initial_state(spec, xs), trail)
    return trail


def transpose(den, sched, spec, steps_of):
    """The forward states, then the sweep's adjoints after every step and
    the gradients it accumulated into the table, alpha and sigma."""
    shared = checked_shared(den, sched, spec, *grid(sched, spec.nfe))
    x = sample_prior(sched, den.d, ROWS, 7)
    acc = {j: np.zeros(shared[j].shape) for j in range(3)}
    state, backs, trail = initial_state(spec, x), [], []
    for step in steps_of(den, spec, shared):
        state, back = step(state, acc)
        backs.append(back)
        trail.append(as_bytes(state))
    adj = tuple(np.full(s.shape, 0.5) for s in state)
    for back in reversed(backs):
        adj = back(adj)
        trail.append(as_bytes(adj))
    return trail + [as_bytes(acc.values())]


def taped(den, sched, spec, steps_of):
    """The whole march on one tape over the grid and x_T, and the
    gradients of a weighted sum of the final state."""
    tape = en.Tape()
    times, times_c = (tape.leaf(t) for t in grid(sched, spec.nfe))
    x = tape.leaf(sample_prior(sched, den.d, ROWS, 7))
    shared = checked_shared(den, sched, spec, times, times_c)
    trail = []
    out = march(steps_of(den, spec, shared), initial_state(spec, x), trail)
    w = np.linspace(-1.0, 1.0, out[0].data.size).reshape(out[0].data.shape)
    grads = tape.backward([(out[0], w)], [times, times_c, x])
    return trail + [as_bytes(grads)]


MODES = {"cold": cold, "tangent": tangent, "transpose": transpose,
         "taped": taped}


@pytest.mark.parametrize("nfe", [1, 2, 4, 16])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", SOLVERS, ids=SOLVER_IDS)
def test_prebuilt_reads_equal_the_indexing_step(family, order, sched_name,
                                               kind, mode, nfe):
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    run = MODES[mode]
    with np.errstate(all="raise"):
        got = run(den, sched, spec, make_steps)
        want = run(den, sched, spec, indexing_steps)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"entry {k} differs"

