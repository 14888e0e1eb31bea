"""Acceptance gate: nine end-to-end criteria, one test each.

Every test prints a single PASS line (visible with -s) carrying its elapsed
time; the assertions pin the tolerances and the runtime budgets.
"""

import json
import time

import numpy as np

import steplab.engine as en
from pointmass import point_mass
from steplab.cli import main
from steplab.denoisers import GMDenoiser
from steplab.discretize import Discretization, heuristic_times, tau
from steplab.evaluate import (BENCH_METHODS, bench_cell, bench_eval_assets,
                              bound_closed_terms, cross_eval, estimate_bound,
                              rmsd, solve_batch, solver_map, sweep_r)
from steplab.rng import sample_prior
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import SolverSpec, solve
from steplab.training import (Dataset, Teacher, TrainConfig,
                              generate_dataset, pair_grads, radius,
                              soft_loss, train)

VE = ve_edm()
WEIGHTS = np.array([0.5, 0.3, 0.2])
MEANS = np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]])
VARS = np.array([0.25, 0.16, 0.36])
GM = GMDenoiser.create(VE, WEIGHTS, MEANS, VARS)


def report(n, t0, budget, detail):
    elapsed = time.perf_counter() - t0
    assert elapsed <= budget, \
        f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {n}: PASS ({elapsed:.1f}s) {detail}")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_radius_anchor():
    t0 = time.perf_counter()
    r = radius(0.001, 3072, 4)
    assert r == 0.192
    assert float(f"{r:.2g}") == 0.19
    report(1, t0, 5, f"radius(0.001, 3072, 4) = {r}")


# 2 ---------------------------------------------------------------------------


def geometric_mid_offsets(times):
    """Query-time offsets placing each step's query strictly inside its
    interval, keeping the clamp inactive so central differences see a
    smooth loss."""
    return np.sqrt(times[:-1] * times[1:]) - times[:-1]


def fd_grad(f, x, scale):
    g = np.zeros_like(x)
    for i in range(x.size):
        eps = 1e-6 * max(1.0, abs(scale[i]) if np.ndim(scale) else scale)
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    teacher = Teacher.create(GM, VE, nfe=40)
    x_T = sample_prior(VE, 2, 1, 11)[0]
    y = teacher.solve_many([x_T])[0]
    xp = x_T + 0.05 * VE.sigma_T
    worst = 0.0
    for fam, order in (("euler", 1), ("dpmpp", 2), ("ipndm", 4)):
        for nfe in (3, 4, 6):
            spec = SolverSpec(family=fam, order=order, nfe=nfe)
            base = heuristic_times("logsnr", VE, nfe)
            disc = Discretization.create(
                VE, nfe,
                xi=Discretization.from_times(VE, base).xi,
                xi_c=geometric_mid_offsets(base))
            res = pair_grads(disc, GM, VE, spec, xp, y)

            def of_xi(v):
                return soft_loss(Discretization.create(VE, nfe, xi=v,
                                                       xi_c=disc.xi_c),
                                 GM, VE, spec, xp, y)

            def of_xic(v):
                return soft_loss(Discretization.create(VE, nfe, xi=disc.xi,
                                                       xi_c=v),
                                 GM, VE, spec, xp, y)

            def of_xp(v):
                return soft_loss(disc, GM, VE, spec, v, y)

            checks = (
                (res.grads["xi"], fd_grad(of_xi, disc.xi, np.ones(nfe))),
                (res.grads["xi_c"], fd_grad(of_xic, disc.xi_c, base[:-1])),
                (res.grads["x_prime"],
                 fd_grad(of_xp, xp, np.full(2, VE.sigma_T))),
            )
            for got, want in checks:
                err = rel_err(got, want)
                worst = max(worst, err)
                assert err <= 1e-4, \
                    f"criterion 2: {fam}{order} nfe={nfe} rel err {err:.2e}"
    report(2, t0, 120, f"3 families x NFE {{3,4,6}}, worst rel err "
           f"{worst:.2e} <= 1e-4")


# 3 ---------------------------------------------------------------------------


def test_criterion_3_point_mass_exactness():
    t0 = time.perf_counter()
    x0 = np.array([2.0, 1.0])
    den = point_mass(VE, x0)
    g = np.random.default_rng(3)
    worst = 0.0
    for k in range(100):
        nfe = int(g.integers(1, 9))
        interior = np.sort(g.uniform(VE.t_min, VE.T, size=nfe - 1))[::-1]
        times = np.concatenate(([VE.T], interior, [VE.t_min]))
        x_T = VE.sigma_T * g.standard_normal(2)
        out = solve(den, VE, SolverSpec(family="dpmpp", order=1, nfe=nfe),
                    times, None, x_T)
        exact = x0 + (VE.t_min / VE.T) * (x_T - x0)
        worst = max(worst, float(np.max(np.abs(out - exact))))
    assert worst <= 1e-10
    report(3, t0, 30, f"100 random grids/noises, max |err| {worst:.2e} "
           f"<= 1e-10")


# 4 ---------------------------------------------------------------------------


def test_criterion_4_convergence_orders():
    # measured under the VP schedule: the VE span (sigma from 80 to 0.002)
    # keeps first-order methods pre-asymptotic at NFE <= 40 on every grid
    t0 = time.perf_counter()
    vp = vp_linear()
    gm = GMDenoiser.create(vp, WEIGHTS, MEANS, VARS)
    x = sample_prior(vp, 2, 16, 123)
    nfes = np.array([5, 10, 20, 40])
    ref = solve_batch(gm, vp, SolverSpec(family="dpmpp", order=2, nfe=400),
                      heuristic_times("logsnr", vp, 400), None, x)
    slopes = {}
    for fam, order in (("euler", 1), ("dpmpp", 2)):
        errs = []
        for nfe in nfes:
            out = solve_batch(gm, vp,
                              SolverSpec(family=fam, order=order,
                                         nfe=int(nfe)),
                              heuristic_times("logsnr", vp, int(nfe)), None,
                              x)
            errs.append(rmsd(out, ref))
        slopes[fam] = -np.polyfit(np.log(nfes), np.log(errs), 1)[0]
    assert 0.8 <= slopes["euler"] <= 1.2, f"euler slope {slopes['euler']:.3f}"
    assert slopes["dpmpp"] >= 1.6, f"dpmpp slope {slopes['dpmpp']:.3f}"
    report(4, t0, 120, f"slopes euler {slopes['euler']:.2f} in [0.8,1.2], "
           f"dpmpp-2m {slopes['dpmpp']:.2f} >= 1.6")


# 5 ---------------------------------------------------------------------------


def test_criterion_5_learned_grid_beats_heuristics():
    t0 = time.perf_counter()
    teacher = Teacher.create(GM, VE, nfe=100)
    wins, cells = 0, 0
    rmsd_sums = {m: 0.0 for m in BENCH_METHODS}
    for seed in range(5):
        ds = generate_dataset(GM, VE, teacher, 48, seed)
        assets = bench_eval_assets(GM, VE, teacher, 32, 100, seed)
        for fam, order in (("dpmpp", 2), ("ipndm", 4)):
            spec = SolverSpec(family=fam, order=order, nfe=4)
            for nfe in (4, 6, 8):
                by_method = {}
                for method in BENCH_METHODS:
                    row = bench_cell(ds, GM, VE, spec, TrainConfig(seed=seed),
                                     method, nfe, assets, seed)
                    by_method[method] = row
                    rmsd_sums[method] += row[4]
                best_heur = min(v[3] for k, v in by_method.items()
                                if k != "learned")
                cells += 1
                if by_method["learned"][3] <= best_heur:
                    wins += 1
    win_rate = wins / cells
    assert win_rate >= 0.8, f"criterion 5: win rate {win_rate:.2f} < 0.8"
    mean_rmsd = {m: s / cells for m, s in rmsd_sums.items()}
    assert min(mean_rmsd, key=mean_rmsd.get) == "learned", \
        f"criterion 5: mean RMSD ordering {mean_rmsd}"
    report(5, t0, 900, f"win rate {wins}/{cells}; mean RMSD learned "
           f"{mean_rmsd['learned']:.4f} lowest of "
           f"{ {m: round(v, 4) for m, v in mean_rmsd.items()} }")


# 6 ---------------------------------------------------------------------------


def test_criterion_6_radius_sweep_trend():
    t0 = time.perf_counter()
    teacher = Teacher.create(GM, VE, nfe=100)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    r_values = [0.0, 0.01, 0.1, 1.0, 5.0]
    per_r = np.zeros(len(r_values))
    for seed in range(5):
        ds = generate_dataset(GM, VE, teacher, 24, seed)
        rows = sweep_r(ds, GM, VE, spec, TrainConfig(seed=seed), r_values)
        per_r += [v for _, v in rows]
    per_r /= 5
    assert per_r[-1] <= per_r[0], \
        f"criterion 6: L_soft(r=5) {per_r[-1]:.4f} > L_soft(r=0) {per_r[0]:.4f}"
    report(6, t0, 600, f"seed-averaged best L_soft {per_r[-1]:.4f} at r=5 "
           f"<= {per_r[0]:.4f} at r=0")


# 7 ---------------------------------------------------------------------------


def test_criterion_7_cross_solver_diagonal():
    t0 = time.perf_counter()
    teacher = Teacher.create(GM, VE, nfe=100)
    specs = [SolverSpec(family="dpmpp", order=2, nfe=4),
             SolverSpec(family="euler", order=1, nfe=4)]
    acc = np.zeros((2, 2))
    for seed in range(5):
        ds = generate_dataset(GM, VE, teacher, 24, seed)
        acc += cross_eval(ds, GM, VE, specs, TrainConfig(seed=seed))
    acc /= 5
    for j in range(2):
        i_other = 1 - j
        assert acc[j, j] < acc[i_other, j], \
            f"criterion 7: column {j} diagonal {acc[j, j]:.4f} not below " \
            f"{acc[i_other, j]:.4f}"
    report(7, t0, 600, f"seed-averaged matrix diag {acc[0, 0]:.4f}/"
           f"{acc[1, 1]:.4f} below off-diag {acc[1, 0]:.4f}/{acc[0, 1]:.4f}")


# 8 ---------------------------------------------------------------------------


def test_criterion_8_bound_terms():
    t0 = time.perf_counter()
    tmap = solver_map(GM, VE, SolverSpec(family="dpmpp", order=2, nfe=30),
                      heuristic_times("logsnr", VE, 30))
    smap = solver_map(GM, VE, SolverSpec(family="dpmpp", order=2, nfe=4),
                      heuristic_times("logsnr", VE, 4))
    rep = estimate_bound(tmap, smap, VE, 0.19, 2, 10, seed=0)
    t1, t2 = bound_closed_terms(0.19, 2)
    assert rep.term1 == t1 == 0.5 * 0.19 ** 2
    assert rep.term2 == t2 == 0.19 * np.sqrt(3.0)
    means = []
    for r in (10.0, 1.0, 0.1):
        vals = [estimate_bound(tmap, smap, VE, r, 2, 100, seed).term3
                for seed in range(5)]
        means.append(float(np.mean(vals)))
    assert means[0] >= means[1] >= means[2], \
        f"criterion 8: term3 means {means} not non-increasing"
    report(8, t0, 300, f"closed terms exact; term3 means "
           f"{[round(m, 4) for m in means]} non-increasing r=10 -> 0.1")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_invariants(tmp_path):
    t0 = time.perf_counter()

    # monotone tau for 1000 random logit vectors, both schedules
    g = np.random.default_rng(9)
    vp = vp_linear()
    for _ in range(1000):
        nfe = int(g.integers(2, 11))
        xi = 3.0 * g.standard_normal(nfe)
        for sched in (VE, vp):
            times = tau(xi, sched.T, sched.t_min)
            assert np.all(np.diff(times) < 0.0)
            assert times[0] == sched.T and times[-1] == sched.t_min

    # ball constraint after every training iteration (tracked once per
    # epoch over every row, which sees each post-projection state) plus an
    # independent check of the final iterates
    teacher = Teacher.create(GM, VE, nfe=60)
    ds = generate_dataset(GM, VE, teacher, 16, 0)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    rep = train(ds, GM, VE, spec, TrainConfig(seed=0))
    assert rep.max_ball_violation <= 1e-9
    rho = radius(0.001, 2, 4) * VE.sigma_T
    gaps = np.linalg.norm(ds.x_prime - ds.x_T, axis=1)
    assert np.all(gaps <= rho * (1 + 1e-12))

    # checkpointed and whole-tape gradients agree to 1e-12
    xp, y = ds.x_prime[3], ds.y[3]
    for fam, order in (("dpmpp", 2), ("ipndm", 4)):
        sp = SolverSpec(family=fam, order=order, nfe=6)
        disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 6))
        ck = pair_grads(disc, GM, VE, sp, xp, y, checkpointed=True)
        wh = pair_grads(disc, GM, VE, sp, xp, y, checkpointed=False)
        for k in ("xi", "xi_c", "x_prime"):
            np.testing.assert_allclose(ck.grads[k], wh.grads[k], rtol=1e-12,
                                       atol=1e-12)

    # byte-identical reruns of the gen-data/train/bench pipeline
    cfg = tmp_path / "acc.cfg"
    cfg.write_text("seed = 0\ndata.count = 8\nsolver.nfe = 3\n"
                   "teacher.nfe = 30\ntrain.epochs_phase1 = 1\n"
                   "train.epochs_phase2 = 1\nbench.nfes = 3\n"
                   "bench.methods = logsnr,learned\nbench.eval_count = 8\n"
                   "bench.rmsd_ref_nfe = 30\n")
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(d / "data.bin")]) == 0
        assert main(["train", "--config", str(cfg), "--data",
                     str(d / "data.bin"), "--out", str(d / "run")]) == 0
        assert main(["bench", "--config", str(cfg), "--data",
                     str(d / "data.bin"), "--out", str(d / "bench")]) == 0
        outs.append(d)
    a, b = outs
    assert (a / "data.bin").read_bytes() == (b / "data.bin").read_bytes()
    assert (a / "run" / "checkpoint.json").read_bytes() == \
        (b / "run" / "checkpoint.json").read_bytes()
    wallless = [[",".join(line.split(",")[:7]) for line in
                 (d / "run" / "metrics.csv").read_text().splitlines()]
                for d in outs]
    assert wallless[0] == wallless[1]
    assert (a / "bench" / "bench.csv").read_bytes() == \
        (b / "bench" / "bench.csv").read_bytes()
    report(9, t0, 300, "monotone tau x1000, ball constraint, checkpointed "
           "gradients, byte-identical pipeline reruns")
