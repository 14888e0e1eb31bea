"""Training: ball geometry anchors, split determinism, chain gradients against
finite differences, optimizer oracle, and the shape of a full training run."""

import numpy as np
import pytest
from dataclasses import fields, replace

import steplab.engine as en
from steplab.denoisers import GMDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab import config, training
from steplab.schedule import ScheduleDomainError, ve_edm, vp_linear
from steplab.solvers import (GridError, SolverSpec, checked_shared,
                             make_steps, solve)
from steplab.training import (RmsPropMomentum, Teacher, TrainConfig,
                              TrainingError, clip_to_norm,
                              distance, generate_dataset, mean_loss,
                              mixture_hashes, pair_grads, project, radius,
                              select_init, soft_loss, split_indices, train)

VE = ve_edm()
GM = GMDenoiser.create(VE, np.array([0.5, 0.3, 0.2]),
                       np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]]),
                       np.array([0.25, 0.16, 0.36]))


def small_dataset(count=8, teacher_nfe=40, seed=0):
    teacher = Teacher.create(GM, VE, nfe=teacher_nfe)
    return generate_dataset(GM, VE, teacher, count, seed)


# -------------------------------------------------------------- ball geometry


def test_radius_anchor():
    assert radius(0.001, 3072, 4) == 0.192


def test_radius_validation():
    with pytest.raises(TrainingError):
        radius(-0.1, 10, 4)
    with pytest.raises(TrainingError):
        radius(0.001, 0, 4)
    with pytest.raises(TrainingError):
        radius(0.001, 10, 0)


def test_project_rescales_outside_point():
    got = project(np.array([0.3, 0.4]), np.zeros(2), 0.25)
    np.testing.assert_allclose(got, [0.15, 0.20], atol=1e-15)


def test_project_keeps_inside_point():
    x = np.array([0.1, -0.05])
    np.testing.assert_array_equal(project(x, np.zeros(2), 0.25), x)


def test_project_zero_radius_returns_center():
    c = np.array([2.0, -1.0])
    np.testing.assert_array_equal(project(c + 1.0, c, 0.0), c)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", [0.5, 8.0])
def test_project_lands_an_overflowing_row_on_the_sphere(rho):
    """|x' - x_T|^2 overflows float64 for the middle row: it is measured
    at its own scale and lands on the sphere along its direction, with no
    overflow warning, whether rho is below or above that scale's unit; the
    rows whose distance is finite keep their bits."""
    x_T = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    x = x_T + [[0.1, -0.1], [3e300, 4e300], [30.0, 40.0]]
    got = project(x, x_T, rho)
    np.testing.assert_allclose(got[1], x_T[1] + rho * np.array([0.6, 0.8]),
                               rtol=1e-14)
    assert np.linalg.norm(got[1] - x_T[1]) <= rho
    assert got[0].tobytes() == x[0].tobytes()  # inside: passes as it is
    assert got[[0, 2]].tobytes() == \
        project(x[[0, 2]], x_T[[0, 2]], rho).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_trained_starts_lie_inside_the_ball(seed):
    """x_T + scale * diff rounds at the spacing of |x_T| (about 200 under
    VE), about 3e-12 of rho = 0.01: a projection aimed at the sphere itself
    lands outside for some seeds.  Every row lies inside, with no slack."""
    teacher = Teacher.create(GM, VE, nfe=60)
    ds = generate_dataset(GM, VE, teacher, 16, seed)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    report = train(ds, GM, VE, spec, TrainConfig(seed=seed))
    rho = radius(0.001, 2, 4) * VE.sigma_T
    gaps = np.linalg.norm(report.x_prime - ds.x_T, axis=1)
    assert np.max(gaps) <= rho
    assert report.max_ball_violation <= 0.0


def test_distance_is_normalized_squared_error():
    a, b = np.array([1.0, 3.0]), np.array([0.0, 1.0])
    assert distance(a, b) == (1.0 + 4.0) / 2.0


# ------------------------------------------------------------------- dataset


def test_generate_dataset_shapes_and_copy():
    ds = small_dataset(count=4)
    assert ds.count == 4 and ds.d == 2
    assert ds.schedule_hash == VE.schedule_hash()
    assert ds.mixture == mixture_hashes(GM)
    assert ds.teacher == ("dpmpp", 2, 40, "logsnr")
    with pytest.raises(TrainingError):
        generate_dataset(GM, VE, Teacher.create(GM, VE, nfe=10), 1, 0)


def test_teacher_targets_are_solver_outputs():
    ds = small_dataset(count=3, teacher_nfe=30)
    teacher = Teacher.create(GM, VE, nfe=30)
    np.testing.assert_array_equal(ds.y, teacher.solve_many(ds.x_T))
    np.testing.assert_array_equal(
        ds.y[1], solve(GM, VE, teacher.spec, teacher.times, x_T=ds.x_T[1]))


def test_split_indices_partition():
    tr, va = split_indices(11, seed=5)
    assert len(tr) == 6 and len(va) == 5
    assert set(tr) | set(va) == set(range(11))
    assert set(tr).isdisjoint(va)
    tr2, va2 = split_indices(11, seed=5)
    np.testing.assert_array_equal(tr, tr2)
    tr3, _ = split_indices(11, seed=6)
    assert not np.array_equal(tr, tr3)


# ------------------------------------------------------------------ gradients


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def rel_err(a, b):
    scale = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / scale


def test_pair_grads_match_finite_differences():
    ds = small_dataset(count=4, teacher_nfe=40)
    spec = SolverSpec(family="dpmpp", order=2, nfe=3)
    base = Discretization.from_times(VE, heuristic_times("logsnr", VE, 3))
    # nonzero xi_c keeps times_c off the clamp boundary at T, where central
    # differences would average the two one-sided slopes
    disc = Discretization.create(VE, 3, xi=base.xi,
                                 xi_c=np.array([-0.5, 0.3, -0.2]))
    xp = ds.x_T[0] + 0.05
    y = ds.y[0]
    res = pair_grads(disc, GM, VE, spec, xp, y)

    def loss_of_xi(xi):
        d2 = Discretization.create(VE, 3, xi=xi, xi_c=disc.xi_c)
        return soft_loss(d2, GM, VE, spec, xp, y)

    def loss_of_xic(xic):
        d2 = Discretization.create(VE, 3, xi=disc.xi, xi_c=xic)
        return soft_loss(d2, GM, VE, spec, xp, y)

    def loss_of_xp(v):
        return soft_loss(disc, GM, VE, spec, v, y)

    assert rel_err(res.grads["xi"], fd_grad(loss_of_xi, disc.xi)) <= 1e-4
    assert rel_err(res.grads["xi_c"], fd_grad(loss_of_xic, disc.xi_c)) <= 1e-4
    assert rel_err(res.grads["x_prime"], fd_grad(loss_of_xp, xp)) <= 1e-4


def test_checkpointed_equals_whole_tape_on_real_chain():
    ds = small_dataset(count=4, teacher_nfe=40)
    spec = SolverSpec(family="ipndm", order=3, nfe=4)
    disc = Discretization.from_times(VE, heuristic_times("edm", VE, 4))
    xp, y = ds.x_T[1], ds.y[1]
    ck = pair_grads(disc, GM, VE, spec, xp, y, checkpointed=True)
    whole = pair_grads(disc, GM, VE, spec, xp, y, checkpointed=False)
    assert ck.loss == whole.loss
    for k in ("xi", "xi_c", "x_prime"):
        np.testing.assert_allclose(ck.grads[k], whole.grads[k],
                                   rtol=1e-12, atol=1e-12)


VP = vp_linear()
VP_GM = GMDenoiser.create(VP, np.array([0.6, 0.4]),
                          np.array([[1.0, -0.5], [-1.0, 0.5]]),
                          np.array([0.2, 0.3]))


@pytest.mark.parametrize("family,order", [("euler", 1), ("dpmpp", 1),
                                          ("dpmpp", 2), ("ipndm", 3)])
def test_pair_grads_match_finite_differences_under_vp(family, order):
    # under VP every column of the coefficient table depends on the grid
    nfe = 4
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    base = Discretization.from_times(VP, heuristic_times("logsnr", VP, nfe))
    disc = Discretization.create(
        VP, nfe, xi=base.xi + np.array([0.1, -0.2, 0.0, 0.3]),
        xi_c=np.array([-0.02, 0.01, -0.01, 0.0]))
    xp, y = np.array([0.9, -0.3]), np.array([0.8, -0.6])
    res = pair_grads(disc, VP_GM, VP, spec, xp, y)

    def loss_of_xi(xi):
        d2 = Discretization.create(VP, nfe, xi=xi, xi_c=disc.xi_c)
        return soft_loss(d2, VP_GM, VP, spec, xp, y)

    def loss_of_xic(xic):
        d2 = Discretization.create(VP, nfe, xi=disc.xi, xi_c=xic)
        return soft_loss(d2, VP_GM, VP, spec, xp, y)

    assert rel_err(res.grads["xi"], fd_grad(loss_of_xi, disc.xi)) <= 1e-4
    assert rel_err(res.grads["xi_c"], fd_grad(loss_of_xic, disc.xi_c)) <= 1e-4


# taped ops of a whole-tape dpmpp2 pair_grads on the default config, as of
# the coefficient-table solver and the N-logit grid; a step that re-derives
# its coefficients from scalar times again shows up here
WHOLE_TAPE_OPS = {4: 61, 8: 85, 16: 133}


@pytest.mark.parametrize("nfe", sorted(WHOLE_TAPE_OPS))
def test_whole_tape_size_is_pinned(nfe):
    cfg = dict(config.DEFAULTS)
    sched = config.build_schedule(cfg)
    den = config.build_denoiser(cfg, sched)
    spec = SolverSpec(family="dpmpp", order=2, nfe=nfe)
    disc = Discretization.from_times(sched,
                                     heuristic_times("logsnr", sched, nfe))
    x = np.array([30.0, -45.0])
    res = pair_grads(disc, den, sched, spec, x, 0.01 * x, checkpointed=False)
    assert res.retained_arrays <= WHOLE_TAPE_OPS[nfe]


@pytest.mark.parametrize("checkpointed", [True, False],
                         ids=["ckpt", "whole"])
def test_nan_query_offset_raises_schedule_domain_error(checkpointed):
    """The chain prelude checks the query times once per grid; a NaN in
    xi_c is named there, not by a diverged step."""
    spec = SolverSpec(family="dpmpp", order=2, nfe=3)
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 3))
    disc.xi_c[1] = np.nan
    x = np.array([30.0, -45.0])
    with pytest.raises(ScheduleDomainError, match="t=nan"):
        pair_grads(disc, GM, VE, spec, x, 0.01 * x, checkpointed)


@pytest.mark.parametrize("checkpointed", [True, False],
                         ids=["ckpt", "whole"])
def test_learned_grid_with_tied_times_raises_grid_error(checkpointed):
    """The chain prelude checks the learned grid as `solve` checks any
    grid; tied times are refused before any step runs."""
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    disc = Discretization.create(VE, 4, xi=[-40.0, 0.0, 0.0, 0.0])
    assert disc.times()[0] == disc.times()[1]
    x = np.array([30.0, -45.0])
    with pytest.raises(GridError, match="strictly decreasing"):
        pair_grads(disc, GM, VE, spec, x, 0.01 * x, checkpointed)


def test_grid_constant_mode_freezes_grid():
    ds = small_dataset(count=4)
    spec = SolverSpec(family="dpmpp", order=1, nfe=3)
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 3))
    steps = make_steps(GM, spec, checked_shared(GM, VE, spec, disc.times(),
                                                disc.times_c()))
    res = pair_grads(disc, GM, VE, spec, ds.x_T[0], ds.y[0], steps=steps)
    assert set(res.grads) == {"x_prime"}


def test_mean_loss_is_mean_of_pair_soft_losses():
    ds = small_dataset(count=4)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 4))
    idx = np.array([0, 2, 3])
    per_pair = [soft_loss(disc, GM, VE, spec, ds.x_T[j], ds.y[j])
                for j in idx]
    assert mean_loss(disc, GM, VE, spec, ds.x_T[idx], ds.y[idx]) == \
        float(np.mean(per_pair))


def test_select_init_picks_the_argmin():
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    _, val_idx = split_indices(ds.count, ds.seed)
    xi, kind, val = select_init(GM, VE, spec, ds, val_idx)
    per_kind = {}
    for k in ("uniform", "quadratic", "edm", "logsnr"):
        disc = Discretization.from_times(VE, heuristic_times(k, VE, 4))
        per_kind[k] = mean_loss(disc, GM, VE, spec, ds.x_T[val_idx],
                                ds.y[val_idx])
    assert kind == min(per_kind, key=per_kind.get)
    assert val == per_kind[kind]


# ------------------------------------------------------------------ optimizer


def test_rmsprop_momentum_against_reference_recurrence():
    g = np.random.default_rng(3)
    opt = RmsPropMomentum(4)
    p = np.ones(4)
    p_ref = np.ones(4)
    v = np.zeros(4)
    buf = np.zeros(4)
    for _ in range(25):
        grad = g.normal(size=4)
        opt.step(p, grad, lr=0.01)
        v = 0.99 * v + 0.01 * grad * grad
        buf = 0.9 * buf + grad / (np.sqrt(v) + 1e-8)
        p_ref = p_ref - 0.01 * buf
        np.testing.assert_allclose(p, p_ref, rtol=1e-12, atol=1e-14)


def test_clip_to_norm():
    g = np.array([3.0, 4.0])
    clipped = clip_to_norm(g, 1.0)
    assert abs(np.linalg.norm(clipped) - 1.0) < 1e-12
    np.testing.assert_allclose(clipped, g / 5.0)
    np.testing.assert_array_equal(clip_to_norm(g, 10.0), g)
    np.testing.assert_array_equal(clip_to_norm(g, 0.0), g)  # 0 disables


# ---------------------------------------------------------------- train loop


CFG = TrainConfig(epochs_phase1=1, epochs_phase2=1, seed=0)


def test_train_improves_and_reports():
    ds = small_dataset(count=8, teacher_nfe=40)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    report = train(ds, GM, VE, spec, CFG)
    assert not report.aborted
    assert report.best_val <= report.init_val_loss
    assert report.init_kind in ("uniform", "quadratic", "edm", "logsnr")
    n_train = 4  # 8 pairs split 50/50
    iters_per_epoch = (n_train + CFG.batch - 1) // CFG.batch
    assert len(report.iter_rows) == 2 * iters_per_epoch
    assert len(report.epoch_rows) == 2
    assert [row[1] for row in report.epoch_rows] == [1, 2]  # phase column
    assert report.max_ball_violation <= 1e-9
    disc = report.best_discretization(VE, 4)
    assert np.all(np.diff(disc.times()) < 0.0)


def test_train_leaves_its_dataset_and_reports_the_moved_starts():
    """x'_T belongs to the run: the dataset comes back byte-equal, and the
    starts the run moved, inside the ball, are the report's x_prime."""
    ds = small_dataset(count=8)
    before = [getattr(ds, f.name) for f in fields(ds)]
    before = [v.copy() if isinstance(v, np.ndarray) else v for v in before]
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    report = train(ds, GM, VE, spec, CFG)
    for f, was in zip(fields(ds), before):
        now = getattr(ds, f.name)
        if isinstance(was, np.ndarray):
            assert now.tobytes() == was.tobytes(), f.name
        else:
            assert now == was, f.name
    assert report.x_prime.shape == ds.x_T.shape
    gaps = np.linalg.norm(report.x_prime - ds.x_T, axis=1)
    assert np.all(gaps > 0.0)  # every row moved, in training or refresh
    assert np.max(gaps) <= radius(CFG.gamma, ds.d, 4) * VE.sigma_T


def test_train_is_deterministic():
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    r1 = train(ds, GM, VE, spec, CFG)
    r2 = train(ds, GM, VE, spec, CFG)
    np.testing.assert_array_equal(r1.best_xi, r2.best_xi)
    np.testing.assert_array_equal(r1.best_xi_c, r2.best_xi_c)
    np.testing.assert_array_equal(r1.x_prime, r2.x_prime)
    assert r1.iter_rows == r2.iter_rows
    assert [row[:5] for row in r1.epoch_rows] == \
        [row[:5] for row in r2.epoch_rows]  # all but wall_s


def test_phase1_freezes_xi_c():
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    cfg = replace(CFG, epochs_phase2=0, epochs_phase1=2)
    report = train(ds, GM, VE, spec, cfg)
    np.testing.assert_array_equal(report.best_xi_c, np.zeros(4))


def test_soft_forcing_alone_still_improves():
    # lr_xi = 0 keeps the grid at its init; optimizing x' must not hurt
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    cfg = replace(CFG, lr_xi=0.0, epochs_phase2=0, epochs_phase1=2)
    xi_before = select_init(GM, VE, spec, ds,
                            split_indices(ds.count, ds.seed)[1])[0]
    report = train(ds, GM, VE, spec, cfg)
    np.testing.assert_array_equal(report.best_xi, xi_before)
    assert report.best_val <= report.init_val_loss


def test_zero_radius_reduces_to_hard_forcing():
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    cfg = replace(CFG, r_override=0.0)
    report = train(ds, GM, VE, spec, cfg)
    np.testing.assert_array_equal(report.x_prime, ds.x_T)  # ball has radius 0
    assert report.max_ball_violation <= 0.0


def test_explicit_init_respected_and_bad_init_rejected():
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    report = train(ds, GM, VE, spec, replace(CFG, init="quadratic"))
    assert report.init_kind == "quadratic"
    _, val_idx = split_indices(ds.count, ds.seed)
    disc = Discretization.from_times(VE, heuristic_times("quadratic", VE, 4))
    assert report.init_val_loss == mean_loss(disc, GM, VE, spec,
                                             ds.x_T[val_idx], ds.y[val_idx])
    with pytest.raises(TrainingError):
        train(ds, GM, VE, spec, replace(CFG, init="karras"))


def test_grid_underflow_in_the_loop_aborts_keeping_the_best_grid(
        monkeypatch):
    """A GridError from the grid prelude inside the loop ends training as an
    abort that keeps the epoch-0 grid."""
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    want = train(ds, GM, VE, spec, replace(CFG, epochs_phase2=0))
    calls = []
    real_tau = training.tau

    def underflowing(*args):
        calls.append(None)
        if len(calls) > len(want.iter_rows):  # epoch 1's first prelude
            raise GridError("time grid must be strictly decreasing")
        return real_tau(*args)

    monkeypatch.setattr(training, "tau", underflowing)
    report = train(ds, GM, VE, spec, CFG)
    assert report.aborted and report.best_epoch == 0
    np.testing.assert_array_equal(report.best_xi, want.best_xi)
    np.testing.assert_array_equal(report.best_xi_c, want.best_xi_c)
    assert report.iter_rows == want.iter_rows
    assert [row[:5] for row in report.epoch_rows] == \
        [row[:5] for row in want.epoch_rows]  # wall_s aside


@pytest.mark.parametrize("broken_at,epochs_done", [(1, 0), (2, 0), (3, 1)],
                         ids=["mid-epoch0", "last-of-epoch0",
                              "first-of-epoch1"])
def test_non_monotone_grid_aborts_after_the_step_that_made_it(
        monkeypatch, broken_at, epochs_done):
    """A step that leaves tied grid times ends training before anything
    else moves: the next pair_grads, or the refresh when the step was the
    epoch's last, refuses the grid.  The step's own row is kept."""
    ds = small_dataset(count=8)  # 4 training pairs: 2 steps per epoch
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    _, val_idx = split_indices(ds.count, ds.seed)
    step = RmsPropMomentum.step
    calls = []

    def tying(self, param, grad, lr):
        step(self, param, grad, lr)
        calls.append(None)
        if len(calls) == broken_at:  # tau(0) == tau(1) == T in float64
            param[:] = [-40.0, 0.0, 0.0, 0.0]

    monkeypatch.setattr(RmsPropMomentum, "step", tying)
    report = train(ds, GM, VE, spec, CFG)
    assert report.aborted
    assert len(report.iter_rows) == broken_at
    assert len(report.epoch_rows) == epochs_done
    assert report.best_epoch == epochs_done - 1
    if not epochs_done:  # no refresh ran
        np.testing.assert_array_equal(report.x_prime[val_idx],
                                      ds.x_T[val_idx])


ABORT_CAUSES = ["iteration-grid", "iteration-loss", "refresh-grid",
                "validation-loss"]


@pytest.mark.parametrize("cause", ABORT_CAUSES)
def test_each_abort_cause_in_epoch1_keeps_the_epoch0_checkpoint(
        monkeypatch, cause):
    """Each cause train() catches, met in epoch 1: a GridError from an
    iteration's pair_grads or from the refresh, or a non-finite iteration
    or validation loss.  Each ends training as an abort that keeps epoch
    0's checkpoint and epoch row, the rows of the iterations that ran and
    the ball violation of every state the run left."""
    ds = small_dataset(count=8)  # 4 training pairs: 2 steps per epoch
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    one = train(ds, GM, VE, spec, replace(CFG, epochs_phase2=0))
    full = train(ds, GM, VE, spec, CFG)
    assert not (one.aborted or full.aborted)
    real_pair_grads, real_refresh = training.pair_grads, training._refresh
    calls = []

    def faulty_pair_grads(*args):
        res = real_pair_grads(*args)
        if len(args) == 6:  # an iteration's call; the refresh passes 8
            calls.append(None)
            if len(calls) == 3:  # epoch 1's first iteration
                if cause == "iteration-grid":
                    raise GridError("time grid must be strictly decreasing")
                res.loss = np.full_like(res.loss, np.nan)
        return res

    def faulty_refresh(*args):
        calls.append(None)
        if len(calls) == 2 and cause == "refresh-grid":
            raise GridError("time grid must be strictly decreasing")
        best_x, losses = real_refresh(*args)
        if len(calls) == 2:
            losses = np.full_like(losses, np.inf)
        return best_x, losses

    if cause.startswith("iteration"):
        monkeypatch.setattr(training, "pair_grads", faulty_pair_grads)
    else:
        monkeypatch.setattr(training, "_refresh", faulty_refresh)
    report = train(ds, GM, VE, spec, CFG)
    assert report.aborted and report.best_epoch == 0
    assert report.best_val == one.best_val
    np.testing.assert_array_equal(report.best_xi, one.best_xi)
    np.testing.assert_array_equal(report.best_xi_c, one.best_xi_c)
    assert [row[:5] for row in report.epoch_rows] == \
        [row[:5] for row in one.epoch_rows]  # wall_s aside
    if cause.startswith("iteration"):  # nothing of epoch 1 ran
        assert report.iter_rows == one.iter_rows
        assert report.max_ball_violation == one.max_ball_violation
    else:  # epoch 1's iterations ran in full
        assert report.iter_rows == full.iter_rows
    if cause == "validation-loss":  # and its refresh moved the rows
        assert report.max_ball_violation == full.max_ball_violation
    if cause == "refresh-grid":  # epoch 1's training rows, epoch 0's others
        train_idx, _ = split_indices(ds.count, ds.seed)
        diff = full.x_prime[train_idx] - ds.x_T[train_idx]
        rho = radius(CFG.gamma, ds.d, spec.nfe) * VE.sigma_T
        assert report.max_ball_violation == max(
            one.max_ball_violation,
            float(np.max(np.sqrt(np.vecdot(diff, diff)))) - rho)


def test_train_builds_its_discretization_once(monkeypatch):
    """One Discretization for the whole run, beside select_init's one per
    heuristic, however many iterations and epochs run."""
    ds = small_dataset(count=8)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    created = []
    create = Discretization.create.__func__

    def counting(cls, *args, **kwargs):
        created.append(None)
        return create(cls, *args, **kwargs)

    monkeypatch.setattr(Discretization, "create", classmethod(counting))
    report = train(ds, GM, VE, spec, replace(CFG, init="logsnr"))
    assert len(report.iter_rows) == 4 and not report.aborted
    assert len(created) == 2
