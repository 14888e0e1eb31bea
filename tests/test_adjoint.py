"""The discrete adjoint behind `pair_grads`: bit for bit the step-checkpointed
replay it replaced, within 1e-12 of the whole tape, and finite differences
to 1e-4; a tape that holds only the grid prelude's few closed-form ops,
within 1e-12 of a tape of its fine ops, and none for a frozen grid, whose
tape-free gradient equals the one-leaf tape it replaced; denoisers queried
on plain arrays only."""

import numpy as np
import pytest

import steplab.engine as en
from chaingrads import checkpointed_chain_grad
from pointmass import point_mass
from steplab import training
from steplab.denoisers import GMDenoiser
from steplab.discretize import (Discretization, heuristic_times,
                                query_times, tau)
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import (SolverSpec, checked_shared, initial_state,
                             make_steps)
from steplab.training import pair_grads, soft_loss

SCHEDS = {"ve": ve_edm(), "vp": vp_linear()}
SOLVERS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
           ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]
SOLVER_IDS = [f"{f}{o}" for f, o in SOLVERS]
KEYS = ("xi", "xi_c", "x_prime")


def make_den(kind, sched):
    if kind == "gm":
        return GMDenoiser.create(sched, np.array([0.5, 0.3, 0.2]),
                                 np.array([[2.0, 1.0], [-1.4, 1.8],
                                           [0.3, -2.2]]),
                                 np.array([0.25, 0.16, 0.36]))
    return point_mass(sched, np.array([1.0, -1.0]))


def grid(sched, nfe):
    """A logsnr grid with moved steps and query offsets, so every table
    column and query time has a gradient."""
    base = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, nfe))
    g = np.random.default_rng(nfe)
    return Discretization.create(
        sched, nfe, xi=base.xi + 0.2 * g.standard_normal(nfe),
        xi_c=0.01 * sched.T * g.uniform(-1, 1, nfe))


def pair(sched, rows):
    """x'_T of shape (2,) when rows is None, else (rows, 2), and targets."""
    x = sample_prior(sched, 2, 1 if rows is None else rows, 31)
    x = x[0] if rows is None else x
    return x, 0.3 * x[..., ::-1]


def frozen_grid(disc, den, sched, spec, frozen):
    """The prebuilt steps of the grid that freezes disc, or None to learn
    it."""
    return make_steps(den, spec, checked_shared(
        den, sched, spec, disc.times(), disc.times_c())) if frozen else None


def oracle(disc, den, sched, spec, x, y, steps):
    leaves = {"x_prime": x} if steps is not None else \
        {"xi": disc.xi, "xi_c": disc.xi_c, "x_prime": x}
    return checkpointed_chain_grad(
        leaves, *training._chain_parts(den, sched, spec, y, steps))


def one_leaf(den, sched, spec, x, y, steps):
    """The frozen grid's gradient as it was taken before the tape-free
    sweep: x_prime alone on a tape, seeded with the sweep's adjoint of the
    initial state."""
    return en.adjoint_chain_grad(
        {"x_prime": x}, *training._chain_parts(den, sched, spec, y, steps))


def fine_prelude(den, sched, spec):
    """The learned grid's prelude as a tape of its fine ops, as it was
    taken before the closed-form transposes: tau, the query times and
    checked_shared, plain NumPy that tapes when given the taped leaves."""
    def prelude(env):
        times = tau(env["xi"], sched.T, sched.t_min)
        times_c = query_times(times, env["xi_c"], sched.T, sched.t_min)
        return (checked_shared(den, sched, spec, times, times_c),
                initial_state(spec, env["x_prime"]))

    return prelude


@pytest.mark.parametrize("nfe", [2, 4, 8, 16])
@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", SOLVERS, ids=SOLVER_IDS)
def test_closed_form_prelude_equals_the_fine_taped_prelude(
        family, order, sched_name, kind, nfe):
    """The learned grid's closed-form prelude gives the gradients of the
    tape of tau -> query_times -> checked_shared to 1e-12, with the first
    query time clamped at T and the last at t_min; the loss keeps its
    bits, since the forward pass is the same."""
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    disc = grid(sched, nfe)
    disc.xi_c[0], disc.xi_c[-1] = 0.05 * sched.T, -sched.T
    assert disc.times_c()[0] == sched.T and disc.times_c()[-1] == sched.t_min
    x, y = pair(sched, 3)
    got = pair_grads(disc, den, sched, spec, x, y)
    _, build, finale = training._chain_parts(den, sched, spec, y)
    want = en.adjoint_chain_grad(
        {"xi": disc.xi, "xi_c": disc.xi_c, "x_prime": x},
        fine_prelude(den, sched, spec), build, finale)
    assert got.loss.tobytes() == want.loss.tobytes()
    for k in KEYS:
        np.testing.assert_allclose(got.grads[k], want.grads[k], rtol=1e-12,
                                   atol=1e-12, err_msg=k)


@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_query_time_gradient_equals_the_fine_taped_marginals(sched_name,
                                                             kind):
    """The denoiser's t gradient, g_sigma sigma' + g_alpha alpha', equals
    a fine tape of `sched.alpha_sigma` at the query times seeded with the
    kernel's alpha and sigma adjoints, to 1e-12, with query times clamped
    at T and at t_min.  The adjoints come from rows whose (alpha', sigma')
    are set to (1, 0) and then (0, 1)."""
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    times = heuristic_times("logsnr", sched, 6)
    times_c = query_times(times, np.array([0.05, 0.0, 0.3, -0.2, 0.1, -1.0])
                          * sched.T, sched.T, sched.t_min)
    assert times_c[0] == sched.T and times_c[-1] == sched.t_min
    x, _ = pair(sched, 3)
    adj = np.cos(np.arange(x.size)).reshape(x.shape)
    rows = list(zip(times_c, *den.step_constants(times_c)))

    def grad_t(slopes=None):
        """Each row's t gradient, its (alpha', sigma') set to slopes."""
        return np.array([den.epsilon(x, row[:-2] + (slopes or row[-2:]),
                                     pullback=True)[1](adj)[1]
                         for row in rows])

    g_t, g_a, g_s = grad_t(), grad_t((1.0, 0.0)), grad_t((0.0, 1.0))
    for row in rows:
        assert den.epsilon(x, row, pullback=False)[1](adj)[1] is None
    tape = en.Tape()
    tv = tape.leaf(times_c)
    a, s = sched.alpha_sigma(tv)
    seeds = [(s, g_s)] + ([(a, g_a)] if type(a) is en.Value else [])
    want, = tape.backward(seeds, [tv])
    np.testing.assert_allclose(g_t, want, rtol=1e-12, atol=1e-12)


class Wrapped:
    """The GM behind another denoiser.  With own_copy its step constants
    lead with its own copy of the query times, which its epsilon drops
    from the row (the entry just before the GM's constants); without, it
    only delegates."""

    def __init__(self, inner, own_copy):
        self.inner = inner
        self.d = inner.d
        self.own_copy = own_copy
        self.n_inner = len(inner.step_constants(inner.sched.T))

    def step_constants(self, times_c):
        inner = self.inner.step_constants(times_c)
        return ((times_c,) + inner) if self.own_copy else inner

    def epsilon(self, x, t, **kw):
        if self.own_copy and type(t) is tuple:
            t = t[:-self.n_inner - 1] + t[-self.n_inner:]
        return self.inner.epsilon(x, t, **kw)


@pytest.mark.parametrize("own_copy", [True, False], ids=["own", "plain"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", [("euler", 1), ("dpmpp", 2),
                                          ("ipndm", 4)],
                         ids=["euler1", "dpmpp2", "ipndm4"])
def test_a_wrapping_denoiser_gets_the_gm_gradients_bit_for_bit(
        family, order, sched_name, own_copy):
    """Neither the solvers nor training read a denoiser's step constants:
    a denoiser that wraps the GM, with or without constants of its own
    ahead of the GM's, gets the GM's loss and gradients bit for bit."""
    sched = SCHEDS[sched_name]
    den = make_den("gm", sched)
    spec = SolverSpec(family=family, order=order, nfe=4)
    disc = grid(sched, 4)
    x, y = pair(sched, 3)
    got = pair_grads(disc, Wrapped(den, own_copy), sched, spec, x, y)
    want = pair_grads(disc, den, sched, spec, x, y)
    assert got.loss.tobytes() == want.loss.tobytes()
    for k in KEYS:
        assert got.grads[k].tobytes() == want.grads[k].tobytes(), k


@pytest.mark.parametrize("frozen", [False, True], ids=["learned", "frozen"])
@pytest.mark.parametrize("rows", [None, 1, 3], ids=["row", "B1", "B3"])
@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", SOLVERS, ids=SOLVER_IDS)
def test_adjoint_equals_checkpointed_oracle_and_whole_tape(
        family, order, sched_name, kind, rows, frozen):
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=family, order=order, nfe=5)
    disc = grid(sched, 5)
    x, y = pair(sched, rows)
    steps = frozen_grid(disc, den, sched, spec, frozen)
    got = pair_grads(disc, den, sched, spec, x, y, True, steps)
    want = oracle(disc, den, sched, spec, x, y, steps)
    whole = pair_grads(disc, den, sched, spec, x, y, False, steps)
    assert np.asarray(got.loss).tobytes() == np.asarray(want.loss).tobytes()
    assert np.array_equal(got.loss, whole.loss)
    assert sorted(got.grads) == sorted(want.grads)
    for k in got.grads:
        assert got.grads[k].tobytes() == want.grads[k].tobytes(), k
        np.testing.assert_allclose(got.grads[k], whole.grads[k],
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 5], ids=["B1", "B5"])
@pytest.mark.parametrize("nfe", [2, 4, 8])
@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", SOLVERS, ids=SOLVER_IDS)
def test_frozen_grid_sweep_equals_the_one_leaf_tape(family, order,
                                                    sched_name, kind, nfe,
                                                    rows):
    """A frozen grid's tape-free gradient is, bit for bit, the one-leaf
    tape it replaced, and within 1e-12 of the whole tape."""
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    disc = grid(sched, nfe)
    x, y = pair(sched, rows)
    steps = frozen_grid(disc, den, sched, spec, True)
    got = pair_grads(disc, den, sched, spec, x, y, True, steps)
    want = one_leaf(den, sched, spec, x, y, steps)
    whole = pair_grads(disc, den, sched, spec, x, y, False, steps)
    assert got.loss.tobytes() == want.loss.tobytes()
    assert np.array_equal(got.loss, whole.loss)
    assert list(got.grads) == list(want.grads) == ["x_prime"]
    g = got.grads["x_prime"]
    assert g.shape == x.shape
    assert g.tobytes() == want.grads["x_prime"].tobytes()
    np.testing.assert_allclose(g, whole.grads["x_prime"], rtol=1e-12,
                               atol=1e-12)
    assert got.n_steps == want.n_steps == nfe
    assert got.retained_arrays == want.retained_arrays


@pytest.mark.parametrize("rows", [1, 5], ids=["B1", "B5"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_frozen_grid_refuses_a_non_finite_adjoint_on_both_paths(sched_name,
                                                                rows):
    """A target holding inf makes x_prime's adjoint non-finite: the sweep
    names x_prime, the one-leaf tape its leaf op."""
    sched = SCHEDS[sched_name]
    den = make_den("gm", sched)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    disc = grid(sched, 4)
    x, y = pair(sched, rows)
    y = y.copy()
    y[-1, 0] = np.inf
    steps = frozen_grid(disc, den, sched, spec, True)
    with np.errstate(all="ignore"):
        with pytest.raises(en.EngineError,
                           match="^non-finite adjoint of x_prime$"):
            pair_grads(disc, den, sched, spec, x, y, True, steps)
        with pytest.raises(en.EngineError,
                           match=r"^non-finite adjoint at op 0 \(leaf\)$"):
            one_leaf(den, sched, spec, x, y, steps)


def fd_grad(f, x, eps):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return g


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
@pytest.mark.parametrize("family,order", [("euler", 1), ("dpmpp", 2),
                                          ("ipndm", 4)],
                         ids=["euler1", "dpmpp2", "ipndm4"])
def test_adjoint_matches_finite_differences(family, order, sched_name, kind):
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    spec = SolverSpec(family=family, order=order, nfe=4)
    disc = grid(sched, 4)
    x, y = pair(sched, 3)
    res = pair_grads(disc, den, sched, spec, x, y)

    def loss(xi, xi_c, xp):
        d2 = Discretization.create(sched, 4, xi=xi, xi_c=xi_c)
        return float(np.sum(soft_loss(d2, den, sched, spec, xp, y)))

    eps = 1e-6 * sched.T
    want = {"xi": fd_grad(lambda v: loss(v, disc.xi_c, x), disc.xi, 1e-6),
            "xi_c": fd_grad(lambda v: loss(disc.xi, v, x), disc.xi_c, eps),
            "x_prime": fd_grad(lambda v: loss(disc.xi, disc.xi_c, v), x,
                               eps)}
    for k in KEYS:
        assert rel_err(res.grads[k], want[k]) <= 1e-4, k


def taped_ops(monkeypatch, fn):
    """Ops on each tape that Tape.backward walks while fn runs."""
    sizes = []
    backward = en.Tape.backward

    def counting(self, seeds, leaves):
        sizes.append(len(self))
        return backward(self, seeds, leaves)

    monkeypatch.setattr(en.Tape, "backward", counting)
    fn()
    monkeypatch.setattr(en.Tape, "backward", backward)
    return sizes


@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_learned_grid_tapes_the_same_prelude_at_every_nfe(monkeypatch,
                                                          sched_name):
    """The prelude's tape holds the three leaves, the times, the query
    times and the table: 6 entries at every NFE and under both schedules,
    where the fine ops were 34."""
    sched = SCHEDS[sched_name]
    den = make_den("gm", sched)
    x, y = pair(sched, 2)
    counts = []
    for nfe in (4, 8, 16):
        spec = SolverSpec(family="dpmpp", order=2, nfe=nfe)
        disc = grid(sched, nfe)
        sizes = taped_ops(monkeypatch, lambda: pair_grads(
            disc, den, sched, spec, x, y))
        assert len(sizes) == 1  # one reverse pass: the prelude's
        counts.append(sizes[0])
    assert counts == [6] * 3
    # the whole tape grows with the steps instead
    whole = taped_ops(monkeypatch, lambda: pair_grads(
        disc, den, sched, spec, x, y, checkpointed=False))
    assert whole[0] > counts[0]


def test_frozen_grid_tapes_nothing(monkeypatch):
    sched = SCHEDS["vp"]
    den = make_den("gm", sched)
    spec = SolverSpec(family="ipndm", order=3, nfe=6)
    disc = grid(sched, 6)
    x, y = pair(sched, 3)
    steps = frozen_grid(disc, den, sched, spec, True)
    tapes = []
    init = en.Tape.__init__

    def counting(self):
        tapes.append(None)
        init(self)

    monkeypatch.setattr(en.Tape, "__init__", counting)
    sizes = taped_ops(monkeypatch, lambda: pair_grads(
        disc, den, sched, spec, x, y, True, steps))
    assert sizes == [] and tapes == []


@pytest.mark.parametrize("frozen", [False, True], ids=["learned", "frozen"])
@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("sched_name", sorted(SCHEDS))
def test_no_epsilon_call_sees_a_taped_x(monkeypatch, sched_name, kind,
                                        frozen):
    sched = SCHEDS[sched_name]
    den = make_den(kind, sched)
    cls = type(den)
    epsilon = cls.epsilon
    seen = []

    def recording(self, x, t, *args, **kwargs):
        seen.append(type(x) is en.Value or any(
            type(c) is en.Value for c in (t if type(t) is tuple else (t,))))
        return epsilon(self, x, t, *args, **kwargs)

    monkeypatch.setattr(cls, "epsilon", recording)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    x, y = pair(sched, 2)
    disc = grid(sched, 4)
    pair_grads(disc, den, sched, spec, x, y, True,
               frozen_grid(disc, den, sched, spec, frozen))
    assert len(seen) == 4 and not any(seen)


def test_prebuilt_grid_gives_the_same_gradients():
    """Freezing a grid by its prebuilt steps gives the loss and x'
    gradients of the learned grid it freezes, bit for bit."""
    sched = SCHEDS["ve"]
    den = make_den("gm", sched)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    disc = grid(sched, 4)
    x, y = pair(sched, 3)
    steps = make_steps(den, spec, checked_shared(den, sched, spec,
                                                 disc.times(), disc.times_c()))
    got = pair_grads(disc, den, sched, spec, x, y, True, steps)
    want = pair_grads(disc, den, sched, spec, x, y, True)
    assert got.loss.tobytes() == want.loss.tobytes()
    assert got.grads["x_prime"].tobytes() == want.grads["x_prime"].tobytes()


@pytest.mark.parametrize("frozen", [False, True], ids=["learned", "frozen"])
def test_non_finite_adjoint_raises_engine_error(frozen):
    sched = SCHEDS["ve"]
    den = make_den("gm", sched)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    x, y = pair(sched, 2)
    y = y.copy()
    y[1, 0] = np.inf
    disc = grid(sched, 4)
    steps = frozen_grid(disc, den, sched, spec, frozen)
    with np.errstate(all="ignore"), \
            pytest.raises(en.EngineError, match="non-finite adjoint"):
        pair_grads(disc, den, sched, spec, x, y, True, steps)


@pytest.mark.parametrize("family,order", SOLVERS, ids=SOLVER_IDS)
def test_retained_arrays_grow_by_a_fixed_count_per_step(family, order):
    """The sweep holds each step's input state, its output and the
    denoiser's intermediates: the same number of arrays per step, more
    than the state slots alone."""
    sched = SCHEDS["vp"]
    den = make_den("gm", sched)
    x, y = pair(sched, 2)
    held = []
    for nfe in (4, 8, 12):
        spec = SolverSpec(family=family, order=order, nfe=nfe)
        held.append(pair_grads(grid(sched, nfe), den, sched, spec, x,
                               y).retained_arrays)
    per_step = (held[1] - held[0]) / 4
    assert held[2] - held[1] == held[1] - held[0]
    assert per_step > 1 + SolverSpec(family, order, 4).history_width


def test_denoiser_pullbacks_share_the_taped_vjp():
    """The GM pullback's closure is the VJP `en.record` tapes: it gives the
    same gradients as a tape over (x, t^c_i)."""
    sched = SCHEDS["vp"]
    for den in (make_den("gm", sched), make_den("point", sched)):
        times_c = np.array([0.7, 0.3])
        rows = den.step_constants(times_c)
        x, _ = pair(sched, 3)
        adj = np.cos(np.arange(x.size)).reshape(x.shape)
        row = (times_c[1],) + tuple(c[1] for c in rows)
        eps, vjp = den.epsilon(x, row, pullback=True)
        tape = en.Tape()
        xv, tv = tape.leaf(x), tape.leaf(row[0])
        out = den.epsilon(xv, (tv,) + row[1:])
        assert eps.tobytes() == out.data.tobytes()
        want = tape.backward([(out, adj)], [xv, tv])
        for g, w in zip(vjp(adj), want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert den.epsilon(x, row, pullback=False)[1](adj)[1] is None
