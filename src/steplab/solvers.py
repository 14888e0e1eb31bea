"""Deterministic multistep solvers for the probability-flow ODE.

All solvers march a decreasing time grid t_0 > t_1 > ... > t_N and call the
denoiser exactly once per step, at the (possibly separately learned) query
times t^c_i.  With lambda_i = lambda(t_i) and h_i = lambda_{i+1} - lambda_i
(> 0 along sampling), x_hat_i = (x_i - sigma_i eps_i) / alpha_i:

    EULER   x_{i+1} = x_i + (t_{i+1} - t_i) [ f(t_i) x_i
                          + g^2(t_i) / (2 sigma_i) eps_i ]
    DPMPP   order 1:  x_{i+1} = (sigma_{i+1}/sigma_i) x_i
                          - alpha_{i+1} (e^{-h_i} - 1) x_hat_i
            order 2:  same update with D_i = (1 + 1/(2 rho_i)) x_hat_i
                          - 1/(2 rho_i) x_hat_{i-1},  rho_i = h_{i-1}/h_i
                      (first step falls back to order 1)
    IPNDM   x_{i+1} = (alpha_{i+1}/alpha_i) x_i
                          - sigma_{i+1} (e^{h_i} - 1) eps_bar_i
            with eps_bar_i an Adams-Bashforth combination of the last
            epsilons; warm-up uses the lower-order coefficient rows.

Steps are pure functions of (state, shared) where shared = (times, times_c),
so they run identically on plain numpy arrays and on taped engine Values;
the training loop exploits this for checkpointed backpropagation.  The
inter-step state has a fixed width per solver spec (history slots are
zero-padded before they fill), which keeps the number of arrays cached per
step constant regardless of grid length.

`march` is the one loop that applies the steps outside the engine's chain
gradients, set up by `solver_map` alone: `solve`, the bound's transport maps
and, through `solve`, teacher targets and student losses all run it.

A state is one sample of shape (d,) or a batch of shape (B, d) marched on
one shared grid; every batched row equals its single-row solve bit for bit.
A batch raises DivergenceError at the first step where any row diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as en

EULER = "euler"
DPMPP = "dpmpp"
IPNDM = "ipndm"

# Adams-Bashforth rows, newest epsilon first
_AB = {
    1: (1.0,),
    2: (3.0 / 2.0, -1.0 / 2.0),
    3: (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0),
    4: (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0),
}


class GridError(ValueError):
    """Malformed time grid."""


class DivergenceError(RuntimeError):
    """Non-finite state during a solve; carries the failing step index."""

    def __init__(self, step):
        super().__init__(f"solver state became non-finite at step {step}")
        self.step = step


@dataclass(frozen=True)
class SolverSpec:
    family: str
    order: int
    nfe: int

    def __post_init__(self):
        if self.family == EULER:
            ok = self.order == 1
        elif self.family == DPMPP:
            ok = self.order in (1, 2)
        elif self.family == IPNDM:
            ok = 1 <= self.order <= 4
        else:
            raise GridError(f"unknown solver family {self.family!r}")
        if not ok:
            raise GridError(f"order {self.order} invalid for {self.family}")
        if self.nfe < 1:
            raise GridError("nfe must be >= 1")

    @property
    def history_width(self):
        if self.family == DPMPP and self.order == 2:
            return 1
        if self.family == IPNDM:
            return self.order - 1
        return 0


def initial_state(spec, x_T):
    """State tuple entering step 0: the sample plus zeroed history slots."""
    xd = en.data_of(x_T)
    pads = tuple(np.zeros_like(xd) for _ in range(spec.history_width))
    return (x_T,) + pads


def make_steps(den, sched, spec, n_steps):
    """Pure step closures for i = 0 .. n_steps-1."""
    if spec.family == EULER:
        return [_euler_step(den, sched, i) for i in range(n_steps)]
    if spec.family == DPMPP:
        return [_dpmpp_step(den, sched, i, spec.order) for i in range(n_steps)]
    return [_ipndm_step(den, sched, i, spec.order) for i in range(n_steps)]


def _euler_step(den, sched, i):
    def step(state, shared):
        times, times_c = shared
        (x,) = state
        t0 = en.index(times, i)
        t1 = en.index(times, i + 1)
        tc = en.index(times_c, i)
        eps = den.epsilon(x, tc)
        s0 = sched.sigma(t0)
        coef = en.div(sched.diffusion_sq(t0), en.mul(2.0, s0))
        rhs = en.add(en.mul(sched.drift(t0), x), en.mul(coef, eps))
        xn = en.add(x, en.mul(en.sub(t1, t0), rhs))
        return (xn,)

    return step


def _dpmpp_step(den, sched, i, order):
    def step(state, shared):
        times, times_c = shared
        x = state[0]
        t0 = en.index(times, i)
        t1 = en.index(times, i + 1)
        tc = en.index(times_c, i)
        a0, s0 = sched.alpha_sigma(t0)
        a1, s1 = sched.alpha_sigma(t1)
        eps = den.epsilon(x, tc)
        xhat = en.div(en.sub(x, en.mul(s0, eps)), a0)
        h = en.sub(sched.lam(t1), sched.lam(t0))
        em1 = en.expm1(en.neg(h))  # e^{-h} - 1, negative along sampling
        if order == 2 and i > 0:
            xhat_prev = state[1]
            h_prev = en.sub(sched.lam(t0), sched.lam(en.index(times, i - 1)))
            # 1 / (2 rho_i) with rho_i = h_{i-1} / h_i
            c = en.div(h, en.mul(2.0, h_prev))
            d_i = en.sub(en.mul(en.add(1.0, c), xhat), en.mul(c, xhat_prev))
        else:
            d_i = xhat
        xn = en.sub(en.mul(en.div(s1, s0), x), en.mul(en.mul(a1, em1), d_i))
        if order == 2:
            return (xn, xhat)
        return (xn,)

    return step


def _ipndm_step(den, sched, i, order):
    def step(state, shared):
        times, times_c = shared
        x = state[0]
        hist = state[1:]
        t0 = en.index(times, i)
        t1 = en.index(times, i + 1)
        tc = en.index(times_c, i)
        a0, s0 = sched.alpha_sigma(t0)
        a1, s1 = sched.alpha_sigma(t1)
        eps = den.epsilon(x, tc)
        k = min(i + 1, order)
        coeffs = _AB[k]
        acc = en.mul(coeffs[0], eps)
        for j in range(1, k):
            acc = en.add(acc, en.mul(coeffs[j], hist[j - 1]))
        h = en.sub(sched.lam(t1), sched.lam(t0))
        xn = en.sub(en.mul(en.div(a1, a0), x),
                    en.mul(en.mul(s1, en.expm1(h)), acc))
        new_hist = (eps,) + hist[:-1] if hist else ()
        return (xn,) + new_hist

    return step


def validate_grid(sched, times, times_c=None, nfe=None):
    """Checked float64 (times, times_c); times_c defaults to times."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.shape[0] < 2:
        raise GridError("time grid needs at least two points")
    if nfe is not None and times.shape[0] != nfe + 1:
        raise GridError(f"grid has {times.shape[0] - 1} steps, expected {nfe}")
    if not np.all(np.diff(times) < 0.0):
        raise GridError("time grid must be strictly decreasing")
    sched.check_domain(times)
    if times_c is None:
        return times, times
    times_c = np.asarray(times_c, dtype=np.float64)
    if times_c.shape != times.shape:
        raise GridError("times_c must match the grid shape")
    sched.check_domain(times_c)
    return times, times_c


def march(steps, shared, state):
    """Apply the step closures in order; returns the final state tuple.

    Raises DivergenceError(i) as soon as step i leaves a non-finite sample
    (in any row of a batch).
    """
    for i, step in enumerate(steps):
        state = step(state, shared)
        if not np.isfinite(en.data_of(state[0])).all():
            raise DivergenceError(i)
    return state


def solver_map(den, sched, spec, times, times_c=None):
    """Closure x_T -> x_N on the checked grid, taped or raw, (d,) or (B, d)."""
    shared = validate_grid(sched, times, times_c, nfe=spec.nfe)
    steps = make_steps(den, sched, spec, spec.nfe)
    return lambda x: march(steps, shared, initial_state(spec, x))[0]


def solve(den, sched, spec, times, times_c=None, x_T=None):
    """March x_T down the grid; returns the final state x_N, shaped as x_T.

    Args:
        den: object with epsilon(x, t).
        sched: NoiseSchedule.
        spec: SolverSpec (family/order/nfe).
        times: decreasing grid, length nfe + 1.
        times_c: denoiser query times (defaults to `times`).
        x_T: initial sample, shape (d,), or a batch of them, shape (B, d).

    Raises:
        GridError on malformed grids, DivergenceError if a step produces a
        non-finite state.
    """
    return solver_map(den, sched, spec, times, times_c)(
        np.asarray(x_T, dtype=np.float64))
