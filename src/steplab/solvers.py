"""Deterministic multistep solvers for the probability-flow ODE.

All solvers march a decreasing time grid t_0 > t_1 > ... > t_N and call the
denoiser exactly once per step, at the (possibly separately learned) query
times t^c_i.  Given the grid, every update is linear in the state and the
denoiser output, so `coeffs` builds the grid's (N, k) coefficient table with
vector ops once, and step i combines its arrays with row i in one
`lincomb`.  With a, s = alpha, sigma, lambda_i = lambda(t_i) and
h_i = lambda_{i+1} - lambda_i (> 0 along sampling), the rows are

    EULER   x_{i+1} = [1 + dt_i f(t_i), dt_i g^2(t_i) / (2 s_i)]
                          . (x_i, eps_i),          dt_i = t_{i+1} - t_i
    DPMPP   x_hat_i = [1 / a_i, -s_i / a_i] . (x_i, eps_i), then
            x_{i+1} = [s_{i+1} / s_i, -E_i (1 + c_i), E_i c_i]
                          . (x_i, x_hat_i, x_hat_{i-1})
            with E_i = a_{i+1} (e^{-h_i} - 1); order 2 has
            c_i = 1 / (2 rho_i), rho_i = h_{i-1} / h_i, and c_0 = 0 (the
            first step is order 1); order 1 drops the last entry
    IPNDM   x_{i+1} = [a_{i+1} / a_i, -s_{i+1} (e^{h_i} - 1) b_i]
                          . (x_i, eps_i, eps_{i-1}, ...)
            with b_i the Adams-Bashforth row of order min(i + 1, order),
            zero-padded during warm-up

`checked_shared` checks a grid and builds shared once for it, taped or
cold: the table, the query times, then the denoiser's per-step constants
on their plain data (`den.step_constants`, a tuple of arrays with one row
per step).  So the query times are the only step constants that can
carry a gradient, and no solver reads a denoiser's layout.
`coeffs_transpose` is the table's closed-form transpose, which training's
learned grid runs in place of a tape of `coeffs`: each row reads t_i and
t_{i+1}, and dpmpp2's c_i also h_{i-1}, so it is banded.
`make_steps` builds the steps of one shared: it reads every step's rows
of it once, and step i hands its denoiser row, t^c_i followed by row i of
the constants, to `den.epsilon`.  So steps run identically on plain numpy
arrays and on taped engine Values.  On a plain grid each table row is a
list of Python floats, from one tolist per grid, and each denoiser row a
tuple, so a step is one denoiser call plus its update arithmetic; on a
taped grid the same reads are taped.  Given acc, `step(state, acc)` runs
on plain arrays and also returns its transpose, which training's discrete
adjoint sweeps: the adjoints of the state are row i times the adjoint of
the update, the row's gradient is one vdot per array, and the denoiser's
pullback gives those of x and of the query time t^c_i.
The inter-step state has a fixed width per solver spec (history slots are
zero-padded before they fill), which keeps the number of arrays cached per
step constant regardless of grid length.

`march_steps` is the one loop that applies the steps outside the
engine's chain gradients: the closure `solver_map` returns runs it for
`solve`, a `Teacher`'s kept map (its targets and `bound`'s teacher map),
the student's bound map and, through `solve`, student losses, and
training's refresh runs it on steps it built.  The
closure's Jacobian mode carries the d tangents of x_T beside the state:
every slot is stacked as (..., 1 + d, d), row 0 the state and row j the
pushforward of e_j.  An update linear in its arrays moves the tangents by the same
table row, so the mode runs the same steps; only the denoiser call also
returns J_eps V (forward-mode propagation of the ODE's variational
equation, with no tape).

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

# Adams-Bashforth rows, newest epsilon first: row k - 1 is order k, padded
_AB = np.array([[1.0, 0.0, 0.0, 0.0],
                [3.0 / 2.0, -1.0 / 2.0, 0.0, 0.0],
                [23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0, 0.0],
                [55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0]])
ORDERS = {EULER: (1,), DPMPP: (1, 2), IPNDM: (1, 2, 3, 4)}


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
        if self.family not in ORDERS:
            raise GridError(f"unknown solver family {self.family!r}")
        if self.order not in ORDERS[self.family]:
            raise GridError(f"order {self.order} invalid for {self.family}")
        if self.nfe < 1:
            raise GridError("nfe must be >= 1")

    @property
    def history_width(self):
        """x_hat_{i-1} for DPMPP order 2; the order - 1 last IPNDM eps."""
        return 0 if self.family == EULER else self.order - 1


def initial_state(spec, x_T):
    """State tuple entering step 0: the sample plus zeroed history slots."""
    xd = en.data_of(x_T)
    pads = tuple(np.zeros(xd.shape) for _ in range(spec.history_width))
    return (x_T,) + pads


def coeffs(sched, spec, times):
    """The (N, k) coefficient table of the grid `times`, one row per step
    as in the module docstring; plain NumPy, which tapes when `times` is a
    Value, from one `sched.alpha_sigma_lam`."""
    steps = np.arange(spec.nfe)
    if spec.family == EULER:
        t0 = times[:-1]
        dt = times[1:] - t0
        return en.stack([1.0 + dt * sched.drift(t0),
                         dt * sched.diffusion_sq(t0) / (2.0 * sched.sigma(t0))])
    a, s, lam = sched.alpha_sigma_lam(times)
    a0, a1, s0, s1 = a[:-1], a[1:], s[:-1], s[1:]
    h = lam[1:] - lam[:-1]
    if spec.family == IPNDM:
        base = -(s1 * np.expm1(h))
        ab = _AB[np.minimum(steps, spec.order - 1)]
        return en.stack([a1 / a0] + [base * c for c in ab.T[:spec.order]])
    em = a1 * np.expm1(-h)  # negative along sampling
    cols = [1.0 / a0, -(s0 / a0), s1 / s0]
    if spec.order == 1:
        return en.stack(cols + [-em])
    # c_i = h_i / (2 h_{i-1}); c_0 = 0 divides by a repeated h_0
    c = h * (0.5 * (steps > 0)) / h[np.maximum(steps - 1, 0)]
    return en.stack(cols + [-(em * (1.0 + c)), em * c])


def coeffs_transpose(sched, spec, times, g):
    """The transpose of `coeffs` at the plain grid `times`: the (N + 1,)
    gradient of the times given the gradient g of the (N, k) table.  It is
    banded: row i reads t_i and t_{i+1}, through dt_i or a, s at both ends
    and h_i, and dpmpp2's c_i also reads h_{i-1}.  The a, s and lambda
    gradients reach the times through `sched.marginals`' derivatives."""
    (a, s, lam), (da, ds, dlam) = sched.marginals(times)
    a0, a1, s0, s1 = a[:-1], a[1:], s[:-1], s[1:]
    if spec.family == EULER:
        t0 = times[:-1]
        dt = times[1:] - t0
        f, q = sched.drift(t0), sched.diffusion_sq(t0) / (2.0 * s0)
        df, dg2 = sched.ode_slopes()
        # col 0 = 1 + dt f(t0), col 1 = dt q(t0), q = g^2 / (2 s)
        g_t1 = g[:, 0] * f + g[:, 1] * q
        g_t = np.zeros(times.shape)
        g_t[1:] = g_t1
        g_t[:-1] += dt * (g[:, 0] * df + g[:, 1] * (dg2 - 2.0 * q * ds[:-1])
                          / (2.0 * s0)) - g_t1
        return g_t
    h = lam[1:] - lam[:-1]
    g_a, g_s = np.zeros(times.shape), np.zeros(times.shape)
    if spec.family == IPNDM:
        # col 0 = a1 / a0, col 1 + j = base ab_j, base = -s1 expm1(h)
        steps = np.arange(spec.nfe)
        g_base = np.vecdot(g[:, 1:], _AB[np.minimum(steps, spec.order - 1),
                                         :spec.order])
        g_a[1:] = g[:, 0] / a0
        g_a[:-1] -= g[:, 0] * a1 / (a0 * a0)
        g_s[1:] = -g_base * np.expm1(h)
        g_h = -g_base * s1 * np.exp(h)
    else:
        # cols 1 / a0, -s0 / a0, s1 / s0, then -em (1 + c), em c with
        # em = a1 expm1(-h), or -em alone at order 1
        em = a1 * np.expm1(-h)
        if spec.order == 1:
            g_em = -g[:, 3]
        else:
            c = np.zeros(h.shape)
            c[1:] = 0.5 * h[1:] / h[:-1]
            g_em = g[:, 4] * c - g[:, 3] * (1.0 + c)
        g_a[:-1] = (g[:, 1] * s0 - g[:, 0]) / (a0 * a0)
        g_a[1:] += g_em * np.expm1(-h)
        g_s[:-1] = -g[:, 1] / a0 - g[:, 2] * s1 / (s0 * s0)
        g_s[1:] += g[:, 2] / s0
        g_h = -g_em * a1 * np.exp(-h)
        if spec.order == 2:
            # c_i = h_i / (2 h_{i-1}) for i > 0
            g_c = em[1:] * (g[1:, 4] - g[1:, 3]) / h[:-1]
            g_h[1:] += 0.5 * g_c
            g_h[:-1] -= g_c * c[1:]
    g_lam = np.zeros(times.shape)
    g_lam[1:] = g_h
    g_lam[:-1] -= g_h
    return g_a * da + g_s * ds + g_lam * dlam


def make_steps(den, spec, shared):
    """The step closures of the grid `shared` for i = 0 .. nfe-1, all of
    the one generic step (see `_step`); given `_Tangents(den)` they march
    stacked tangent slots.  Each step is bound to its reads of shared,
    built here once for all: the (head, tail) parts of table row i, split
    after DPM-Solver++'s `pre` = 2 data-prediction entries (head is empty
    for the other families), and den's row: t^c_i, then row i of its step
    constants.  `pre` and the state width come from spec once per grid.
    On a plain table the parts are lists of Python floats from one tolist;
    on a taped one each read is taped, as the whole-tape reference
    differentiates it."""
    table = shared[0]
    pre = 2 if spec.family == DPMPP else 0
    width = 1 + spec.history_width
    if type(table) is not en.Value:
        # iterating the constants yields the rows c[i] gives
        reads = [(r[:pre], r[pre:], row)
                 for r, row in zip(table.tolist(), zip(*shared[1:]))]
    else:
        reads = [(table[i, :pre] if pre else None, table[i, pre:],
                  tuple([c[i] for c in shared[1:]]))
                 for i in range(spec.nfe)]
    return [_step(den, pre, width, i, *r) for i, r in enumerate(reads)]


def _step(den, pre, width, i, head, tail, row):
    """Step i on its reads, with the grid's `pre` head entries and state
    width from `make_steps`: step(state) -> state', plain or taped; or,
    given acc, its transpose pair on plain arrays, step(state, acc) ->
    (state', back), where back(adj') -> adj maps the adjoints of state' to
    those of state and adds the step's gradients of the table row and of
    the query time t^c_i into acc[0] and acc[1] where acc has them."""

    def step(state, acc=None):
        x = state[0]
        if acc is None:
            eps = den.epsilon(x, row)
        else:
            eps, eps_vjp = den.epsilon(x, row, pullback=1 in acc)
        # DPM-Solver++ combines data predictions
        out = en.lincomb(head, (x, eps)) if pre else eps
        parts = (x, out) + state[1:]
        new = ((en.lincomb(tail, parts), out) + state[1:])[:width]
        if acc is None:
            return new

        def back(adj):
            # a lincomb's transpose: its row times the adjoint for each
            # part, one vdot per part for the row; out and the kept history
            # slots add their own adjoints as outputs of the step
            g = [c * adj[0] for c in tail]
            g[1:width] = [a + b for a, b in zip(adj[1:], g[1:width])]
            if 0 in acc:
                acc[0][i, pre:] += [np.vdot(adj[0], p) for p in parts]
            g_x, g_eps = g[0], g[1]
            if pre:
                if 0 in acc:
                    acc[0][i, :pre] += [np.vdot(g_eps, x),
                                        np.vdot(g_eps, eps)]
                c_x, c_eps = head
                g_x = g_x + c_x * g_eps
                g_eps = c_eps * g_eps
            g_den, g_t = eps_vjp(g_eps)
            if g_t is not None:
                acc[1][i] += g_t
            return (g_x + g_den,) + tuple(g[2:])

        return new, back

    return step


class _Tangents:
    """The denoiser on stacked slots (..., 1 + d, d): row 0 the state, rows
    1 .. d its tangents, which come back as J_eps V."""

    def __init__(self, den):
        self.den = den

    def epsilon(self, xs, row):
        eps, jv = self.den.epsilon(xs[..., 0, :], row,
                                   tangents=xs[..., 1:, :])
        return np.concatenate([eps[..., None, :], jv], axis=-2)


def solver_map(den, sched, spec, times, times_c=None):
    """Closure x_T -> x_N on the checked grid, taped or raw, (d,) or (B, d);
    times_c defaults to times[:-1].  With jacobian=True (cold x_T, a denoiser
    taking tangents) it returns the stacked final slot (..., 1 + d, d):
    x_N, then the rows of (dx_N / dx_T)^T.  The grid is checked and built
    here once; its cold and its Jacobian steps are each built once, on
    first use."""
    shared = checked_shared(den, sched, spec, times, times_c)
    sets = {}

    def march(x, jacobian=False):
        if jacobian:  # x_T stacked over the identity: (..., 1 + d, d)
            d = x.shape[-1]
            stacked = np.zeros(x.shape[:-1] + (1 + d, d))
            stacked[..., 0, :] = x
            stacked[..., 1 + np.arange(d), np.arange(d)] = 1.0
            x = stacked
        steps = sets.get(jacobian)
        if steps is None:
            steps = sets[jacobian] = make_steps(
                _Tangents(den) if jacobian else den, spec, shared)
        return march_steps(spec, steps, x)

    return march


def checked_shared(den, sched, spec, times, times_c=None):
    """What every step reads, plain or taped: the table of `times`, the nfe
    query times times_c (default times[:-1], each step's start), then den's
    step constants on their plain data.  Raises GridError or
    ScheduleDomainError unless the grid has nfe + 1 strictly decreasing
    times and times_c nfe, both in the schedule's domain; a taped grid's
    checks read its data and tape nothing."""
    times = _as_grid(times)
    td = en.data_of(times)
    if td.ndim != 1 or td.shape[0] < 2:
        raise GridError("time grid needs at least two points")
    if td.size != spec.nfe + 1:
        raise GridError(f"grid has {td.size - 1} steps, expected {spec.nfe}")
    if not np.logical_and.reduce(td[1:] < td[:-1]):
        raise GridError("time grid must be strictly decreasing")
    sched.check_domain(td)
    if times_c is None:
        times_c = times[:-1]
    else:
        times_c = _as_grid(times_c)
        if en.data_of(times_c).shape != (spec.nfe,):
            raise GridError(f"times_c must have shape ({spec.nfe},), one "
                            f"query time per step")
        sched.check_domain(times_c)
    return (coeffs(sched, spec, times), times_c) \
        + den.step_constants(en.data_of(times_c))


def _as_grid(t):
    """A taped grid as it is, anything else as a float64 array."""
    return t if type(t) is en.Value else np.asarray(t, dtype=np.float64)


def march_steps(spec, steps, x):
    """The final state of prebuilt steps marched from x; DivergenceError
    names the first step whose state is not finite."""
    state = initial_state(spec, x)
    for i, step in enumerate(steps):
        state = step(state)
        if not np.logical_and.reduce(np.isfinite(en.data_of(state[0])),
                                     axis=None):
            raise DivergenceError(i)
    return state[0]


def solve(den, sched, spec, times, times_c=None, x_T=None):
    """March x_T down the grid; returns the final state x_N, shaped as x_T.

    Args:
        den: object with step_constants(times_c) and epsilon(x, row), row
            t^c_i followed by row i of its step constants.
        sched: NoiseSchedule.
        spec: SolverSpec (family/order/nfe).
        times: decreasing grid, length nfe + 1.
        times_c: the nfe denoiser query times (defaults to `times[:-1]`).
        x_T: initial sample, shape (d,), or a batch of them, shape (B, d).

    Raises:
        GridError on malformed grids, DivergenceError if a step produces a
        non-finite state.
    """
    return solver_map(den, sched, spec, times, times_c)(
        np.asarray(x_T, dtype=np.float64))
