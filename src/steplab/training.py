"""Grid learning by soft teacher forcing.

A teacher solver with a fine grid maps prior noise x_T to targets
y = Psi*(x_T).  The student reuses the same denoiser with only N steps and
learnable (xi, xi_c).  Rather than forcing Psi_xi(x_T) = y (hard loss), a
run gives each pair a perturbed start x'_T, from x_T, that is co-optimized
under the constraint ||x'_T - x_T|| <= rho_ball, with

    rho_ball = r * sigma_T,      r = gamma * d / NFE^2.

Each iteration takes one projected-SGD step on x'_T and simultaneous steps on
xi (RMSprop with momentum) and xi_c (plain SGD, phase 2 only).  Its
gradients come from the discrete adjoint of the solver map: the grid
prelude (tau, the query times and the checked per-grid rows) runs cold
and tapes only its differentiable outputs, a few ops with closed-form
transposes, the steps run once on plain arrays caching their pullbacks,
and one reverse sweep with no tape yields the adjoints that seed the
prelude's tape.  End of epoch, validation x'_T are refreshed with K
frozen-grid projected-SGD steps (keeping each pair's best iterate), whose
gradients come from the same sweep with no tape at all: x'_T's gradient
is the sweep's adjoint of the initial state.  The frozen grid is checked
and built, and its steps built, once per refresh, for those K gradients
and its final loss.  Then the validation soft loss is recorded,
plateau decay is applied to both learning rates, and (xi, xi_c) is
checkpointed whenever the validation loss reaches a new minimum.  A
non-finite loss, or a grid the next check refuses, aborts training with
the best grid so far.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import engine as en
from . import rng as rngmod
from .discretize import (Discretization, HEURISTICS, heuristic_times,
                         query_times, query_times_transpose, tau,
                         tau_transpose)
from .solvers import (GridError, SolverSpec, checked_shared,
                      coeffs_transpose, initial_state, make_steps,
                      march_steps, solve)


class TrainingError(RuntimeError):
    pass


# ------------------------------------------------------------ ball geometry


def radius(gamma, d, nfe):
    """Perturbation level r = gamma * d / NFE^2 (unitless, scales sigma_T)."""
    if gamma < 0 or d < 1 or nfe < 1:
        raise TrainingError("radius needs gamma >= 0, d >= 1, nfe >= 1")
    return gamma * d / float(nfe * nfe)


def project(x_prime, x_T, rho_ball):
    """Project each row onto the closed ball B(x_T, rho_ball); inside rows
    pass.

    x_T + scale * diff rounds each coordinate at the spacing of
    |x_T| + rho_ball, far coarser than rho_ball's own when |x_T| >> rho, so
    an outside row aims sqrt(d) such spacings inside the sphere: it then
    lies in the ball up to the rounding of rho_ball itself.  A finite row
    whose squared distance overflows is measured at its own scale, so it
    too lands on the sphere along its direction.
    """
    x_prime = np.asarray(x_prime, dtype=np.float64)
    diff = x_prime - x_T
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.vecdot(diff, diff))[..., None]
    unit = 1.0  # the scale diff and dist are measured in
    huge = dist == np.inf
    if np.logical_or.reduce(huge, axis=None):
        unit = np.where(huge, np.maximum.reduce(np.abs(diff), axis=-1,
                                                keepdims=True), 1.0)
        diff = diff / unit
        dist = np.where(huge, np.sqrt(np.vecdot(diff, diff))[..., None], dist)
    outside = dist > rho_ball / unit
    top = np.maximum.reduce(np.abs(x_T), axis=-1, keepdims=True) + rho_ball
    aim = rho_ball - np.sqrt(diff.shape[-1]) * np.spacing(top)
    scale = np.maximum(aim, 0.0) / np.where(outside, dist, 1.0)
    return np.where(outside, x_T + scale * diff, x_prime)


def distance(a, b):
    """Dimension-normalized squared error (1/d) ||a - b||^2 per row;
    engine-generic."""
    diff = en.sub(a, b)
    d = en.data_of(diff).shape[-1]
    return en.mul(en.dot(diff, diff), 1.0 / d)


# ------------------------------------------------------------------ teacher


@dataclass(frozen=True)
class Teacher:
    """Frozen fine-grid solver producing targets Psi*(x_T)."""

    den: object
    sched: object
    spec: SolverSpec
    times: np.ndarray
    grid: str

    @classmethod
    def create(cls, den, sched, family="dpmpp", order=2, nfe=100,
               grid="logsnr"):
        spec = SolverSpec(family=family, order=order, nfe=nfe)
        times = heuristic_times(grid, sched, nfe)
        return cls(den=den, sched=sched, spec=spec, times=times, grid=grid)

    def solve_many(self, xs):
        """Targets for the rows of xs, solved as one batch."""
        return solve(self.den, self.sched, self.spec, self.times, None, xs)


@dataclass(frozen=True)
class Dataset:
    """Teacher pairs (x_T, y = Psi*(x_T)) and what made them: the seed, the
    schedule hash, one hash per mixture group (`mixture_hashes`) and the
    teacher spec (family, order, nfe, grid)."""

    x_T: np.ndarray
    y: np.ndarray
    seed: int
    schedule_hash: int
    mixture: tuple
    teacher: tuple

    @property
    def count(self):
        return self.x_T.shape[0]

    @property
    def d(self):
        return self.x_T.shape[1]


def mixture_hashes(den):
    """Stable 64-bit fingerprints of the mixture's weights, means and
    variances, as the denoiser holds them: configs that give the same
    mixture agree."""
    return tuple(int.from_bytes(hashlib.blake2b(
        repr(a.shape).encode() + a.astype("<f8").tobytes(),
        digest_size=8).digest(), "little")
        for a in (den.weights, den.means, den.variances))


def generate_dataset(den, sched, teacher, count, seed):
    if count < 2:
        raise TrainingError("dataset needs count >= 2")
    x_T = rngmod.sample_prior(sched, den.d, count, seed)
    y = teacher.solve_many(x_T)
    spec = teacher.spec
    return Dataset(x_T=x_T, y=y, seed=int(seed),
                   schedule_hash=sched.schedule_hash(),
                   mixture=mixture_hashes(den),
                   teacher=(spec.family, spec.order, spec.nfe, teacher.grid))


def split_indices(count, seed):
    """50/50 split by index parity of a seeded shuffle (even -> train)."""
    perm = rngmod.substream(seed, "split").permutation(count)
    return np.sort(perm[0::2]), np.sort(perm[1::2])


# ------------------------------------------------------------------- losses


def _chain_parts(den, sched, spec, y, steps=None):
    """Prelude, steps and finale for one pair or a batch, as both chain
    gradients take them.  The prelude checks and builds the grid of the
    leaves xi and xi_c cold and tapes it as `_learned_shared`'s few ops,
    and `solvers.make_steps` builds its steps once per chain; given a
    frozen grid's prebuilt `steps`, it hands on no shared and the builder
    returns those steps.  The finale, like a step, is a transpose pair
    when also given acc."""

    def prelude(env):
        state = initial_state(spec, env["x_prime"])
        if steps is not None:
            return (), state
        return _learned_shared(den, sched, spec, env["xi"], env["xi_c"]), \
            state

    def finale(state, acc=None):
        x = state[0]
        loss = distance(x, y)
        if acc is None:
            return loss

        def back(adj):
            # distance's transpose: diff enters its dot product twice
            t = (adj * (1.0 / x.shape[-1]))[..., None] * (x - y)
            return (t + t,) + tuple(np.zeros(s.shape) for s in state[1:])

        return loss, back

    build = functools.partial(make_steps, den, spec) if steps is None \
        else lambda shared: steps
    return prelude, build, finale


def _learned_shared(den, sched, spec, xi, xi_c):
    """`checked_shared` of the grid of the taped leaves xi and xi_c: built
    cold by `tau`, `query_times` and `checked_shared`, with every check,
    then its differentiable outputs taped as a few ops over the leaves,
    each with a closed-form transpose: the times, the query times, the
    table, and the denoiser's step constants, which
    `den.tape_step_constants` tapes on the taped query times.  So the
    prelude's tape has the same length at any NFE.  A denoiser without
    that method has its constants rebuilt by `step_constants` on the
    taped query times, engine-generic."""
    T, t_min = sched.T, sched.t_min
    xid, xicd = xi.data, xi_c.data
    times = tau(xid, T, t_min)
    times_c = query_times(times, xicd, T, t_min)
    shared = checked_shared(den, sched, spec, times, times_c)
    tv = en.record(times, (xi,), lambda g: (tau_transpose(xid, T, t_min, g),),
                   "tau")
    tcv = en.record(times_c, (tv, xi_c), lambda g: query_times_transpose(
        times, xicd, T, t_min, g), "query_times")
    table = en.record(shared[0], (tv,), lambda g: (coeffs_transpose(
        sched, spec, times, g),), "coeffs")
    tape = getattr(den, "tape_step_constants", None)
    return (table,) + (den.step_constants(tcv) if tape is None
                       else tape(shared[1:], tcv))


def pair_grads(disc, den, sched, spec, x_prime, y, checkpointed=True,
               steps=None):
    """Soft-loss value and gradients for one pair, or for a batch of pairs.

    Returns a ChainGradResult with grads for xi, xi_c, x_prime, or for
    x_prime alone when `steps`, a frozen grid's prebuilt steps
    (`make_steps(den, spec, checked_shared(...))`), are given.  For (B, d)
    rows the loss is the vector of per-pair losses and each row of the
    x_prime gradient is that pair's own gradient; grid gradients are
    summed over the pairs.

    checkpointed=True (the default) takes the steps' gradients with the
    discrete adjoint, one reverse sweep over the cached step states: a
    learned grid tapes only its prelude, whose few ops the sweep seeds and
    whose closed-form transposes carry the gradients to xi and xi_c, and a
    frozen grid tapes nothing, x_prime's gradient being the sweep's
    adjoint of the initial state.  checkpointed=False differentiates the
    whole chain on one tape, the reference for the steps.
    """
    prelude, build, finale = _chain_parts(den, sched, spec, y, steps)
    if steps is not None and checkpointed:
        state = initial_state(spec, np.asarray(x_prime, dtype=np.float64))
        return en.state_chain_grad("x_prime", state, steps, finale)
    leaves = {"x_prime": x_prime} if steps is not None else \
        {"xi": disc.xi, "xi_c": disc.xi_c, "x_prime": x_prime}
    chain = en.adjoint_chain_grad if checkpointed else en.whole_chain_grad
    return chain(leaves, prelude, build, finale)


def soft_loss(disc, den, sched, spec, x_prime, y):
    """d(Psi_xi(x'_T), y), plain forward: a float for one pair, a vector of
    per-pair losses for (B, d) rows."""
    out = solve(den, sched, spec, disc.times(), disc.times_c(), x_prime)
    return distance(out, y)


def mean_loss(disc, den, sched, spec, xs, ys):
    """Mean soft loss over paired rows of starts xs and targets ys."""
    return float(np.mean(soft_loss(disc, den, sched, spec, xs, ys)))


def select_init(den, sched, spec, ds, val_idx, kinds=HEURISTICS):
    """Pick the heuristic grid of kinds with the lowest validation
    teacher-distance; returns (its xi, its kind, that distance)."""
    best = None
    for kind in kinds:
        disc = Discretization.from_times(
            sched, heuristic_times(kind, sched, spec.nfe))
        val = mean_loss(disc, den, sched, spec, ds.x_T[val_idx],
                        ds.y[val_idx])
        if best is None or val < best[2]:
            best = (disc.xi, kind, val)
    return best


# --------------------------------------------------------------- optimizers


class RmsPropMomentum:
    """RMSprop with momentum: v <- a v + (1-a) g^2; m <- mu m + g/(sqrt v + eps),
    with a = 0.99, mu = 0.9 and eps = 1e-8."""

    ALPHA, MOMENTUM, EPS = 0.99, 0.9, 1e-8

    def __init__(self, shape):
        self.sq_avg = np.zeros(shape, dtype=np.float64)
        self.buf = np.zeros(shape, dtype=np.float64)

    def step(self, param, grad, lr):
        self.sq_avg *= self.ALPHA
        self.sq_avg += (1.0 - self.ALPHA) * grad * grad
        self.buf *= self.MOMENTUM
        self.buf += grad / (np.sqrt(self.sq_avg) + self.EPS)
        param -= lr * self.buf


# The fixed schedule around the optimizers: each grid gradient is clipped to
# norm CLIP_NORM; after PLATEAU_PATIENCE epochs with no new best validation
# loss both learning rates are scaled by PLATEAU_FACTOR, down to their floors.
CLIP_NORM = 1.0
PLATEAU_FACTOR, PLATEAU_PATIENCE = 0.8, 5
LR_FLOOR_XI, LR_FLOOR_XIC = 5e-5, 1e-6


def clip_to_norm(grad, max_norm):
    n = float(np.sqrt(np.dot(grad, grad)))
    if n > max_norm > 0.0:
        return grad * (max_norm / n)
    return grad


# ------------------------------------------------------------- training loop


@dataclass
class TrainConfig:
    gamma: float = 0.001
    r_override: float = -1.0  # >= 0 overrides gamma*d/NFE^2
    epochs_phase1: int = 2
    epochs_phase2: int = 5
    batch: int = 2
    lr_xi: float = 0.005
    lr_xic: float = -1.0      # < 0 derives 0.1 / NFE
    lr_xprime: float = -1.0   # < 0 derives 12.0 / NFE
    val_refresh_steps: int = 10
    init: str = "auto"        # auto | uniform | quadratic | edm | logsnr
    seed: int = 0


@dataclass
class TrainReport:
    init_kind: str
    init_val_loss: float
    iter_rows: list = field(default_factory=list)   # (iter, epoch, phase, loss, lr_xi, lr_xic)
    epoch_rows: list = field(default_factory=list)  # (epoch, phase, val, lr_xi, lr_xic, wall_s)
    best_val: float = np.inf
    best_epoch: int = -1
    best_xi: np.ndarray = None
    best_xi_c: np.ndarray = None
    max_ball_violation: float = 0.0
    aborted: bool = False
    x_prime: np.ndarray = None  # the perturbed starts where training left them

    def best_discretization(self, sched, nfe):
        return Discretization.create(sched, nfe, xi=self.best_xi,
                                     xi_c=self.best_xi_c)


def _refresh(disc, den, sched, spec, x_T, x_prime, y, rho, lr, k_steps):
    """K projected-SGD steps on the rows of x' with the grid frozen; keeps
    each row's best iterate.  Returns (best rows, their losses).  The
    frozen grid is checked and built, and its steps built, once for the K
    gradients and the final loss's march."""
    shared = checked_shared(den, sched, spec, disc.times(), disc.times_c())
    steps = make_steps(den, spec, shared)
    best_x = x_prime.copy()
    best_loss = np.full(x_prime.shape[0], np.inf)
    x = x_prime.copy()
    for _ in range(k_steps):
        res = pair_grads(disc, den, sched, spec, x, y, True, steps)
        better = res.loss < best_loss
        best_loss[better] = res.loss[better]
        best_x[better] = x[better]
        x = project(x - lr * res.grads["x_prime"], x_T, rho)
    final = distance(march_steps(spec, steps, x), y)
    better = final < best_loss
    best_loss[better] = final[better]
    best_x[better] = x[better]
    return best_x, best_loss


def train(ds, den, sched, spec, cfg):
    """Run the two-phase grid optimization; returns a TrainReport.

    Phase 1 (epochs_phase1) updates xi and x'_T only; phase 2 additionally
    updates xi_c.  The perturbed starts begin at x_T and persist across
    epochs; they come back as the report's x_prime, the dataset unchanged.
    """
    if ds.count < 2:
        raise TrainingError(f"training needs a dataset of >= 2 pairs, got "
                            f"{ds.count}: its validation split is empty")
    d = ds.d
    nfe = spec.nfe
    lr_xi = cfg.lr_xi
    lr_xic = cfg.lr_xic if cfg.lr_xic >= 0 else 0.1 / nfe
    lr_xp = cfg.lr_xprime if cfg.lr_xprime >= 0 else 12.0 / nfe
    r = cfg.r_override if cfg.r_override >= 0 else radius(cfg.gamma, d, nfe)
    rho = r * sched.sigma_T
    train_idx, val_idx = split_indices(ds.count, ds.seed)

    if cfg.init != "auto" and cfg.init not in HEURISTICS:
        raise TrainingError(f"unknown init {cfg.init!r}")
    kinds = HEURISTICS if cfg.init == "auto" else (cfg.init,)
    xi, init_kind, init_val = select_init(den, sched, spec, ds, val_idx, kinds)
    disc = Discretization.create(sched, nfe, xi=xi)
    xi, xi_c = disc.xi, disc.xi_c  # the steps below update them in place

    x_prime = ds.x_T.copy()
    report = TrainReport(init_kind=init_kind, init_val_loss=init_val,
                         best_xi=xi.copy(), best_xi_c=xi_c.copy(),
                         x_prime=x_prime)
    rms = RmsPropMomentum(xi.shape)
    plateau_count = 0
    it = 0
    n_epochs = cfg.epochs_phase1 + cfg.epochs_phase2
    for epoch in range(n_epochs):
        t_start = time.perf_counter()
        phase = 1 if epoch < cfg.epochs_phase1 else 2
        order = rngmod.substream(cfg.seed, "batches", epoch).permutation(
            len(train_idx))
        try:
            for lo in range(0, len(order), cfg.batch):
                batch = train_idx[order[lo:lo + cfg.batch]]
                b = len(batch)
                res = pair_grads(disc, den, sched, spec, x_prime[batch],
                                 ds.y[batch])
                loss = float(np.mean(res.loss))
                if not np.isfinite(loss):
                    raise TrainingError(f"training loss {loss}")
                if lr_xi > 0:
                    rms.step(xi, clip_to_norm(res.grads["xi"] / b, CLIP_NORM),
                             lr_xi)
                if phase == 2:
                    xi_c -= lr_xic * clip_to_norm(res.grads["xi_c"] / b,
                                                  CLIP_NORM)
                moved = x_prime[batch] - lr_xp * (res.grads["x_prime"] / b)
                x_prime[batch] = project(moved, ds.x_T[batch], rho)
                it += 1
                report.iter_rows.append((it, epoch, phase, loss, lr_xi,
                                         lr_xic))
            # end of epoch: refresh validation x', record loss, decay,
            # checkpoint
            best_x, val_losses = _refresh(
                disc, den, sched, spec, ds.x_T[val_idx], x_prime[val_idx],
                ds.y[val_idx], rho, lr_xp, cfg.val_refresh_steps)
            x_prime[val_idx] = best_x
            val = float(np.mean(val_losses))
            if not np.isfinite(val):
                raise TrainingError(f"validation loss {val}")
        except (GridError, TrainingError):
            # a check refused the grid the last step left, or a loss is not
            # finite: the run ends here, keeping its best grid so far
            report.aborted = True
        # every row moves at most once per epoch, so this sees every state
        diff = x_prime - ds.x_T
        report.max_ball_violation = max(
            report.max_ball_violation,
            float(np.max(np.sqrt(np.vecdot(diff, diff)))) - rho)
        if report.aborted:
            break
        if val < report.best_val:
            report.best_val = val
            report.best_epoch = epoch
            report.best_xi = xi.copy()
            report.best_xi_c = xi_c.copy()
            plateau_count = 0
        else:
            plateau_count += 1
            if plateau_count >= PLATEAU_PATIENCE:
                lr_xi = max(lr_xi * PLATEAU_FACTOR, LR_FLOOR_XI)
                lr_xic = max(lr_xic * PLATEAU_FACTOR, LR_FLOOR_XIC)
                plateau_count = 0
        wall = time.perf_counter() - t_start
        report.epoch_rows.append((epoch, phase, val, lr_xi, lr_xic, wall))
    return report
