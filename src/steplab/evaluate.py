"""Evaluation utilities: distances, Jacobian log-determinants, the
perturbation bound, radius sweeps, cross-solver grids, and benchmarking.

The bound being estimated compares teacher and student as transport maps:
for x'_T in a ball of radius r sigma_T around x_T ~ N(0, sigma_T^2 I), the
KL gap decomposes into r^2/2 + r sqrt(d+1) plus the expected absolute gap
between log |det J| of the two maps, estimated by Monte Carlo with the
teacher Jacobian at ball centers and the student Jacobian at uniformly
drawn ball points.  Each Jacobian comes from one cold march of the map
that carries the d tangents beside the state (no tape, no reverse sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .discretize import HEURISTICS, Discretization, heuristic_times
from .solvers import SolverSpec, solve, solver_map  # solver_map: also evaluate API
from .training import (Teacher, TrainingError, distance, mean_loss,
                       split_indices, train)


class JacobianError(RuntimeError):
    """A log-det the bound cannot use; `row` is the singular row, if any."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


LOGDET_CHUNK = 25  # rows per tangent march: memory stays flat in n_samples


def rmsd(a, b):
    """Root-mean-square deviation over all coordinates of paired samples."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("rmsd needs equal-shape sample arrays")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def w1_1d(a, b):
    """1-D Wasserstein-1 between equal-size empirical distributions."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError("w1_1d needs equal-size samples")
    return float(np.mean(np.abs(a - b)))


def w1(a, b):
    """Per-coordinate W1 averaged over dimensions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("w1 needs equal-shape (n, d) arrays")
    return float(np.mean([w1_1d(a[:, j], b[:, j]) for j in range(a.shape[1])]))


# ----------------------------------------------------------- transport maps


def solve_batch(den, sched, spec, times, times_c, xs):
    """Solve the rows of xs on one grid as a single (B, d) batch."""
    return solve(den, sched, spec, times, times_c, xs)


def log_abs_det_jacobian(map_fn, x):
    """log |det dmap/dx| of one row x (d,), a float, or of each row of a
    batch (B, d), a (B,) array.

    map_fn is a `solver_map` closure: its Jacobian mode marches the d
    tangents e_1 .. e_d beside the state through the same steps, so the
    final slot's rows 1 .. d hold the transposed Jacobian.  Small-dimension
    tool (d <= 4): it is factored by LU with partial pivoting.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    if d > 4:
        raise JacobianError(f"log-det Jacobian needs data.d <= 4, got {d}")
    sign, logdet = np.linalg.slogdet(map_fn(x, jacobian=True)[..., 1:, :])
    bad = (sign == 0.0) | ~np.isfinite(logdet)
    if np.logical_or.reduce(bad, axis=None):
        row = int(bad.argmax())
        raise JacobianError(f"singular Jacobian at row {row}", row)
    return float(logdet) if x.ndim == 1 else logdet


@dataclass(frozen=True)
class BoundReport:
    r: float
    d: int
    term1: float
    term2: float
    term3: float
    n_samples: int

    @property
    def total(self):
        return self.term1 + self.term2 + self.term3


def bound_closed_terms(r, d):
    """The two analytic bound terms: (r^2 / 2, r sqrt(d + 1))."""
    return 0.5 * r * r, r * np.sqrt(d + 1.0)


def estimate_bound(teacher_map, student_map, sched, r, d, n_samples, seed):
    """Monte-Carlo estimate of the three-term perturbation bound.

    term1 = r^2 / 2 and term2 = r sqrt(d + 1) are exact; term3 averages
    |log det J_teacher(b) - log det J_student(a)| over ball centers
    b ~ N(0, sigma_T^2 I) and uniform ball points a in B(b, r sigma_T).
    """
    sig = sched.sigma_T
    term1, term2 = bound_closed_terms(r, d)
    centres, points = np.empty((2, n_samples, d), dtype=np.float64)
    for i, g in enumerate(rngmod.substreams(seed, "bound", n_samples)):
        centres[i] = sig * g.standard_normal(d)
        direction = g.standard_normal(d)
        direction /= np.sqrt(np.dot(direction, direction))
        rad = r * sig * g.random() ** (1.0 / d)
        points[i] = centres[i] + rad * direction
    gaps = np.empty(n_samples, dtype=np.float64)
    for lo in range(0, n_samples, LOGDET_CHUNK):
        rows = slice(lo, lo + LOGDET_CHUNK)
        try:
            gaps[rows] = np.abs(
                log_abs_det_jacobian(teacher_map, centres[rows])
                - log_abs_det_jacobian(student_map, points[rows]))
        except JacobianError as exc:
            if exc.row is None:
                raise
            raise JacobianError(f"singular Jacobian at sample {lo + exc.row}",
                                lo + exc.row) from None
    return BoundReport(r=float(r), d=int(d), term1=float(term1),
                       term2=float(term2),
                       term3=float(np.add.reduce(gaps) / n_samples),
                       n_samples=int(n_samples))


# -------------------------------------------------------------- experiments


def sweep_r(ds, den, sched, spec, cfg, r_values):
    """Train once per feasibility radius r (shared seed/init); returns
    [(r, best validation soft loss)], the loss inf where the training
    aborted before its first checkpoint."""
    rows = []
    for r in r_values:
        report = train(ds.fresh(), den, sched, spec,
                       replace(cfg, r_override=float(r)))
        rows.append((float(r), report.best_val))
    return rows


def cross_eval(ds, den, sched, specs, cfg):
    """Train one grid per solver spec, evaluate every grid under every solver.

    Entry [i][j] is the mean validation teacher-distance of the grid trained
    with specs[i] when sampled with specs[j]; the learned query offsets xi_c
    are solver-specific, so they apply only on the diagonal.  A training
    that ends before its first checkpoint raises TrainingError naming its
    solver.
    """
    nfes = {s.nfe for s in specs}
    if len(nfes) != 1:
        raise ValueError("cross_eval requires a shared NFE")
    _, val_idx = split_indices(ds.count, ds.seed)
    trained = [_checkpointed(train(ds.fresh(), den, sched, spec, cfg),
                             f"{spec.family}{spec.order}") for spec in specs]
    n = len(specs)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i, rep in enumerate(trained):
        for j, spec_j in enumerate(specs):
            xi_c = rep.best_xi_c if i == j else None
            disc = Discretization.create(sched, spec_j.nfe, xi=rep.best_xi,
                                         xi_c=xi_c)
            matrix[i, j] = mean_loss(disc, den, sched, spec_j,
                                     ds.x_T[val_idx], ds.y[val_idx])
    return matrix


def _checkpointed(report, what):
    """report, or TrainingError naming `what` when the training ended
    before its first checkpoint: its best grid is the unvalidated init."""
    if report.best_epoch < 0:
        raise TrainingError(f"training for {what} ended before its first "
                            f"checkpoint")
    return report


BENCH_METHODS = HEURISTICS + ("learned",)


def bench_eval_assets(den, sched, teacher, eval_count, rmsd_ref_nfe, seed):
    """Shared evaluation data for a bench sweep: noise, teacher targets,
    fine-DDIM reference outputs, and exact data samples."""
    x_eval = rngmod.sample_prior(sched, den.d, eval_count,
                                 rngmod.derive_seed(seed, "bench_eval"))
    y_eval = teacher.solve_many(x_eval)
    ref_out = Teacher.create(den, sched, order=1,
                             nfe=rmsd_ref_nfe).solve_many(x_eval)
    gt = den.sample_data(eval_count, rngmod.derive_seed(seed, "bench_gt"))
    return x_eval, y_eval, ref_out, gt


def bench_cell(ds, den, sched, spec, cfg, method, nfe, assets, seed):
    """One (method, NFE) benchmark cell on the shared eval assets; a
    learned cell whose training ends before its first checkpoint raises
    TrainingError naming the solver and the NFE."""
    x_eval, y_eval, ref_out, gt = assets
    spec_n = SolverSpec(family=spec.family, order=spec.order, nfe=int(nfe))
    if method == "learned":
        report = _checkpointed(
            train(ds.fresh(), den, sched, spec_n, replace(cfg, seed=seed)),
            f"{spec.family}{spec.order} at NFE {nfe}")
        disc = report.best_discretization(sched, spec_n.nfe)
        times, times_c = disc.times(), disc.times_c()
    else:
        times = heuristic_times(method, sched, spec_n.nfe)
        times_c = None
    out = solve_batch(den, sched, spec_n, times, times_c, x_eval)
    tdist = float(np.mean(distance(out, y_eval)))
    return (method, f"{spec.family}{spec.order}", int(nfe), tdist,
            rmsd(out, ref_out), w1(out, gt), int(seed))
