"""End-to-end: learn a 4-step time grid that imitates a 100-step teacher.

Builds a teacher dataset for the default Gaussian mixture, trains the grid
with soft teacher forcing (the perturbed noise is free to move inside a
small ball around each original draw), and then compares the learned grid
against the four heuristics on fresh evaluation noise.
"""

import numpy as np

from steplab.denoisers import GMDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab.evaluate import solve_batch
from steplab.rng import derive_seed, sample_prior
from steplab.schedule import ve_edm
from steplab.solvers import SolverSpec
from steplab.training import (Teacher, TrainConfig, distance,
                              generate_dataset, train)

sched = ve_edm()
gm = GMDenoiser.create(sched,
                       weights=np.array([0.5, 0.3, 0.2]),
                       means=np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]]),
                       variances=np.array([0.25, 0.16, 0.36]))
teacher = Teacher.create(gm, sched, nfe=100)
spec = SolverSpec(family="dpmpp", order=2, nfe=4)

ds = generate_dataset(gm, sched, teacher, count=48, seed=0)
print(f"dataset: {ds.count} noise/target pairs, d = {ds.d}")

report = train(ds, gm, sched, spec, TrainConfig(seed=0))
print(f"init grid: {report.init_kind} (val loss {report.init_val_loss:.5f})")
print(f"best val loss {report.best_val:.5f} at epoch {report.best_epoch}")

disc = report.best_discretization(sched, spec.nfe)
print(f"learned times:   {np.array2string(disc.times(), precision=4)}")
print(f"query offsets:   {np.array2string(disc.xi_c, precision=4)}")

# fresh noise the training never saw
x_eval = sample_prior(sched, 2, 64, derive_seed(0, "demo_eval"))
y_eval = teacher.solve_many(x_eval)


def mean_teacher_dist(times, times_c):
    out = solve_batch(gm, sched, spec, times, times_c, x_eval)
    return float(np.mean([distance(out[i], y_eval[i])
                          for i in range(len(x_eval))]))


print()
print("mean teacher distance on 64 fresh draws:")
for kind in ("uniform", "quadratic", "edm", "logsnr"):
    times = heuristic_times(kind, sched, spec.nfe)
    print(f"  {kind:>10}: {mean_teacher_dist(times, None):.5f}")
print(f"  {'learned':>10}: {mean_teacher_dist(disc.times(), disc.times_c()):.5f}")
