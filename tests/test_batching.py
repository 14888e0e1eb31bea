"""The batched fast path: a (B, d) batch run through solve, pair_grads,
project, the log-det Jacobian and the bound equals the same rows run one
at a time, the GM's epsilon over all K components at once equals its
sum over the components one by one, and the validation refresh, its grid
built once, equals one taken on the checkpointed oracle."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaingrads import checkpointed_chain_grad
from logdets import collapse_map
from steplab import config, evaluate, rng, solvers, training
from steplab import engine as en
from steplab.denoisers import GMDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab.evaluate import (JacobianError, estimate_bound,
                              log_abs_det_jacobian, solver_map)
from steplab.solvers import SolverSpec, checked_shared, make_steps, solve
from steplab.training import (Teacher, TrainConfig, generate_dataset,
                              pair_grads, project, train)

SPECS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
         ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]
SCHEDULES = {"ve_edm": {},
             "vp_linear": {"schedule.T": 1.0, "schedule.t_min": 1e-3}}


def build(family, kind):
    cfg = dict(config.DEFAULTS, **SCHEDULES[family])
    cfg["schedule.family"] = family
    cfg["data.kind"] = kind
    sched = config.build_schedule(cfg)
    return sched, config.build_denoiser(cfg, sched)


def learned_looking_grid(sched, nfe):
    """An edm grid with nonzero query offsets, so times_c != times[:-1]."""
    disc = Discretization.from_times(sched, heuristic_times("edm", sched, nfe))
    disc.xi_c[:] = 0.01 * (sched.T - sched.t_min) * np.sin(np.arange(nfe))
    return disc


@pytest.mark.parametrize("kind", ["gm", "point"])
@pytest.mark.parametrize("family", list(SCHEDULES))
@pytest.mark.parametrize("solver,order", SPECS,
                         ids=[f"{f}{o}" for f, o in SPECS])
def test_batched_solve_equals_stacked_rows(solver, order, family, kind):
    sched, den = build(family, kind)
    spec = SolverSpec(family=solver, order=order, nfe=5)
    disc = learned_looking_grid(sched, 5)
    xs = rng.sample_prior(sched, den.d, 6, 3)
    batch = solve(den, sched, spec, disc.times(), disc.times_c(), xs)
    rows = np.stack([solve(den, sched, spec, disc.times(), disc.times_c(), x)
                     for x in xs])
    assert np.array_equal(batch, rows)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_rows_do_not_depend_on_batch_size(b, seed):
    sched, den = build("ve_edm", "gm")
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    times = heuristic_times("logsnr", sched, 4)
    xs = rng.sample_prior(sched, den.d, b, seed)
    batch = solve(den, sched, spec, times, None, xs)
    assert batch.shape == (b, den.d)
    for x, row in zip(xs, batch):
        assert np.array_equal(solve(den, sched, spec, times, None, x), row)


@pytest.mark.parametrize("checkpointed", [True, False],
                         ids=["checkpointed", "whole"])
@pytest.mark.parametrize("family", list(SCHEDULES))
@pytest.mark.parametrize("solver,order", [("dpmpp", 2), ("ipndm", 4),
                                          ("euler", 1)])
def test_frozen_grid_pair_grads_batch_equals_rows(solver, order, family,
                                                 checkpointed):
    sched, den = build(family, "gm")
    spec = SolverSpec(family=solver, order=order, nfe=4)
    disc = learned_looking_grid(sched, 4)
    xs = rng.sample_prior(sched, den.d, 5, 8)
    ys = 0.02 * xs[::-1]
    steps = make_steps(den, spec, checked_shared(den, sched, spec,
                                                 disc.times(), disc.times_c()))
    res = pair_grads(disc, den, sched, spec, xs, ys, checkpointed, steps)
    assert res.loss.shape == (5,)
    for j in range(5):
        one = pair_grads(disc, den, sched, spec, xs[j], ys[j], checkpointed,
                         steps)
        assert one.loss == res.loss[j]
        assert np.array_equal(one.grads["x_prime"], res.grads["x_prime"][j])


def test_batched_project_equals_rows():
    g = np.random.default_rng(2)
    centers = g.standard_normal((40, 3))
    points = centers + g.standard_normal((40, 3)) * g.uniform(0.0, 1.0, (40, 1))
    points[0] = centers[0]  # zero distance stays put
    batch = project(points, centers, 0.5)
    rows = np.stack([project(p, c, 0.5) for p, c in zip(points, centers)])
    assert np.array_equal(batch, rows)
    inside = np.linalg.norm(points - centers, axis=1) <= 0.5
    assert 0 < inside.sum() < 40
    assert np.array_equal(batch[inside], points[inside])


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("checkpointed", [True, False],
                         ids=["checkpointed", "whole"])
@pytest.mark.parametrize("family", list(SCHEDULES))
@pytest.mark.parametrize("solver,order", [("dpmpp", 2), ("ipndm", 4),
                                          ("euler", 1)])
def test_train_batch_grads_match_per_pair_sum(solver, order, family,
                                              checkpointed):
    sched, den = build(family, "gm")
    spec = SolverSpec(family=solver, order=order, nfe=4)
    disc = learned_looking_grid(sched, 4)
    xs = rng.sample_prior(sched, den.d, 5, 9)
    ys = 0.02 * xs[::-1]
    res = pair_grads(disc, den, sched, spec, xs, ys, checkpointed)
    ones = [pair_grads(disc, den, sched, spec, x, y, checkpointed)
            for x, y in zip(xs, ys)]
    for key in ("xi", "xi_c"):
        assert rel_err(res.grads[key], sum(o.grads[key] for o in ones)) \
            <= 1e-12
    for j, one in enumerate(ones):
        assert one.loss == res.loss[j]
        assert np.array_equal(one.grads["x_prime"], res.grads["x_prime"][j])


MAPS = [("dpmpp", 2, 30), ("ipndm", 4, 8), ("euler", 1, 6)]


@pytest.mark.parametrize("family", list(SCHEDULES))
@pytest.mark.parametrize("solver,order,nfe", MAPS,
                         ids=[f"{f}{o}-nfe{n}" for f, o, n in MAPS])
def test_batched_logdets_equal_rows(solver, order, nfe, family):
    sched, den = build(family, "gm")
    spec = SolverSpec(family=solver, order=order, nfe=nfe)
    fn = solver_map(den, sched, spec, heuristic_times("logsnr", sched, nfe))
    xs = rng.sample_prior(sched, den.d, 6, 5)
    batch = log_abs_det_jacobian(fn, xs)
    assert batch.shape == (6,)
    rows = np.array([log_abs_det_jacobian(fn, x) for x in xs])
    assert np.array_equal(batch, rows)


def per_sample_bound_term3(teacher_map, student_map, sched, r, d, n, seed):
    """term3 as one point at a time: the same substreams, one log-det
    tape per point."""
    sig = sched.sigma_T
    gaps = []
    for i in range(n):
        g = rng.substream(seed, "bound", i)
        b = sig * g.standard_normal(d)
        direction = g.standard_normal(d)
        direction /= np.linalg.norm(direction)
        a = b + r * sig * g.random() ** (1.0 / d) * direction
        gaps.append(abs(log_abs_det_jacobian(teacher_map, b)
                        - log_abs_det_jacobian(student_map, a)))
    return float(np.mean(gaps))


def test_train_makes_one_pair_grads_call_per_minibatch(monkeypatch):
    sched, den = build("ve_edm", "gm")
    teacher = Teacher.create(den, sched, nfe=20)
    ds = generate_dataset(den, sched, teacher, 14, 0)  # 7 training pairs
    shapes = []
    real = training.pair_grads

    def counting(*args):
        if len(args) < 8:  # the validation refresh freezes the grid
            shapes.append(args[4].shape)
        return real(*args)

    monkeypatch.setattr(training, "pair_grads", counting)
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    report = train(ds, den, sched, spec,
                   TrainConfig(epochs_phase1=1, epochs_phase2=1, batch=3))
    assert len(shapes) == len(report.iter_rows) == 6
    assert shapes[:3] == [(3, den.d), (3, den.d), (1, den.d)]


@pytest.mark.parametrize("n", [3, 4, 10])
def test_chunked_bound_equals_per_sample_loop(n, monkeypatch):
    monkeypatch.setattr(evaluate, "LOGDET_CHUNK", 4)  # n = 10 spans 3 chunks
    sched, den = build("ve_edm", "gm")
    maps = [solver_map(den, sched, SolverSpec(family="dpmpp", order=2,
                                              nfe=nfe),
                       heuristic_times("logsnr", sched, nfe))
            for nfe in (12, 4)]
    calls = []
    real = evaluate.log_abs_det_jacobian

    def counting(map_fn, x):
        calls.append(len(x))
        return real(map_fn, x)

    monkeypatch.setattr(evaluate, "log_abs_det_jacobian", counting)
    rep = estimate_bound(*maps, sched, 0.19, den.d, n, 3)
    chunks = [min(4, n - lo) for lo in range(0, n, 4)]
    assert calls == [size for size in chunks for _ in maps]
    assert rep.term3 == per_sample_bound_term3(*maps, sched, 0.19, den.d, n,
                                               3)


def test_singular_row_is_named():
    mask = np.zeros((5, 2))
    mask[3, 1] = 1.0
    with pytest.raises(JacobianError, match="row 3"):
        log_abs_det_jacobian(collapse_map(lambda x: mask), np.ones((5, 2)))


def test_singular_bound_sample_is_named_across_chunks(monkeypatch):
    monkeypatch.setattr(evaluate, "LOGDET_CHUNK", 10)  # sample 27: chunk 3
    sched, den = build("ve_edm", "gm")
    teacher = solver_map(den, sched, SolverSpec(family="euler", order=1,
                                                nfe=1),
                         heuristic_times("logsnr", sched, 1))
    seen = [0]

    def mask(x):  # one denoiser call per chunk: the map has one step
        m = np.zeros(x.shape)
        if 0 <= 27 - seen[0] < len(m):
            m[27 - seen[0], 1] = 1.0
        seen[0] += len(m)
        return m

    with pytest.raises(JacobianError, match="at sample 27$"):
        estimate_bound(teacher, collapse_map(mask), sched, 0.19, den.d, 30, 3)


def refresh_checkpointed(disc, den, sched, spec, x_T, x_prime, y, rho, lr,
                         k_steps):
    """Reference: the validation refresh with each step's x' gradients
    taken on the checkpointed oracle, which builds the grid and its steps
    every step."""
    best_x = x_prime.copy()
    best_loss = np.full(x_prime.shape[0], np.inf)
    x = x_prime.copy()
    for _ in range(k_steps):
        steps = make_steps(den, spec, checked_shared(
            den, sched, spec, disc.times(), disc.times_c()))
        res = checkpointed_chain_grad(
            {"x_prime": x}, *training._chain_parts(den, sched, spec, y,
                                                   steps))
        better = res.loss < best_loss
        best_loss[better] = res.loss[better]
        best_x[better] = x[better]
        x = project(x - lr * res.grads["x_prime"], x_T, rho)
    final = training.soft_loss(disc, den, sched, spec, x, y)
    better = final < best_loss
    best_loss[better] = final[better]
    best_x[better] = x[better]
    return best_x, best_loss


@pytest.mark.parametrize("nfe", [3, 4, 6])
@pytest.mark.parametrize("family", list(SCHEDULES))
@pytest.mark.parametrize("solver,order", [("dpmpp", 2), ("ipndm", 4),
                                          ("euler", 1)])
def test_whole_tape_refresh_equals_checkpointed_loop(solver, order, family,
                                                     nfe):
    sched, den = build(family, "gm")
    spec = SolverSpec(family=solver, order=order, nfe=nfe)
    disc = learned_looking_grid(sched, nfe)
    x_T = rng.sample_prior(sched, den.d, 6, 5)
    y = Teacher.create(den, sched, nfe=20).solve_many(x_T)
    x_prime = x_T + 0.05 * sched.sigma_T * np.sin(np.arange(x_T.size)
                                                   ).reshape(x_T.shape)
    args = (disc, den, sched, spec, x_T, x_prime, y,
            0.1 * sched.sigma_T, 12.0 / nfe, 4)
    got = training._refresh(*args)
    want = refresh_checkpointed(*args)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_refresh_builds_its_frozen_grid_once(monkeypatch):
    """One refresh checks and builds its grid once, and lists its table
    once: its steps serve the K gradients and the final loss's march."""
    sched, den = build("ve_edm", "gm")
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    disc = learned_looking_grid(sched, 4)
    x_T = rng.sample_prior(sched, den.d, 6, 5)
    builds = []
    lists = []

    def counting(*args):
        builds.append(None)
        return checked_shared(*args)

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "tolist":
            lists.append(None)

    # training's own name and the one solver_map looks up
    monkeypatch.setattr(training, "checked_shared", counting)
    monkeypatch.setattr(solvers, "checked_shared", counting)
    sys.setprofile(profile)
    try:
        training._refresh(disc, den, sched, spec, x_T, x_T.copy(),
                          0.02 * x_T, 0.1 * sched.sigma_T, 3.0, 5)
    finally:
        sys.setprofile(None)
    assert len(builds) == 1
    assert len(lists) == 1


def gm_epsilon_k_loop(den, x, t):
    """Reference: den's epsilon summed one component at a time."""
    sched, weights, means, variances = (den.sched, den.weights, den.means,
                                        den.variances)
    sched.check_domain(t)
    a, s = sched.alpha_sigma(t)
    d = means.shape[1]
    s2 = en.mul(s, s)
    terms, diffs, varis = [], [], []
    for k in range(means.shape[0]):
        v = (a * a) * float(variances[k]) + s2
        diff = en.sub(x, a * means[k])
        q = en.dot(diff, diff)
        c = float(np.log(weights[k])) + -0.5 * d * (en.log(v)
                                                     + np.log(2.0 * np.pi))
        terms.append(c - q / (2.0 * v))
        diffs.append(diff)
        varis.append(v)
    # one exp pass: e_k = exp(term_k - max), a constant shift, then e / sum e
    top = np.maximum.reduce([en.data_of(term) for term in terms])
    es = [en.exp(en.sub(term, top)) for term in terms]
    total = es[0]
    for e in es[1:]:  # np.add.reduce sums a few entries left to right
        total = en.add(total, e)
    acc = None
    for e, diff, v in zip(es, diffs, varis):
        w = en.div(en.div(e, total), v)
        if np.ndim(en.data_of(w)):
            w = en.index(w, (Ellipsis, None))
        acc = en.mul(w, diff) if acc is None else en.add(acc, en.mul(w, diff))
    return en.mul(s, acc)


def random_mixture(k, d, seed):
    g = np.random.default_rng(seed)
    weights = g.uniform(0.2, 1.0, k)
    return (weights / weights.sum(), 2.0 * g.standard_normal((k, d)),
            g.uniform(0.1, 0.5, k))


@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("family", list(SCHEDULES))
def test_gm_epsilon_over_components_matches_k_loop(family, k):
    sched, _ = build(family, "gm")
    den = GMDenoiser(sched, *random_mixture(k, 3, 10 + k))
    xs = rng.sample_prior(sched, 3, 6, k)
    cotangent = np.cos(np.arange(xs.size)).reshape(xs.shape)
    for t in (1.5 * sched.t_min, 0.3 * sched.T, sched.T):
        for x in (xs, xs[0]):
            assert np.array_equal(den.epsilon(x, t),
                                  gm_epsilon_k_loop(den, x, t))
        # x and t taped, x alone, t alone; a taped t keeps alpha_t live
        # under VP (VE's alpha is untaped ones)
        for live in ("xt", "x", "t"):
            grads = []
            for fn in (GMDenoiser.epsilon, gm_epsilon_k_loop):
                tape = en.Tape()
                xv = tape.leaf(xs) if "x" in live else xs
                tv = tape.leaf(t) if "t" in live else t
                assert isinstance(sched.alpha_sigma(tv)[0], en.Value) == \
                    ("t" in live and family == "vp_linear")
                out = fn(den, xv, tv)
                leaves = [v for v in (xv, tv) if isinstance(v, en.Value)]
                grads.append([out.data] + tape.backward([(out, cotangent)],
                                                        leaves))
            for got, want in zip(*grads):
                assert rel_err(got, want) <= 1e-13
