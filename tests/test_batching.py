"""The batched fast path: a (B, d) batch run through solve, frozen-grid
pair_grads, project and the MLP equals the same rows run one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steplab import config, rng
from steplab.denoisers import MlpDenoiser
from steplab.discretize import Discretization, heuristic_times
from steplab.solvers import SolverSpec, solve
from steplab.training import pair_grads, project

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
    """An edm grid with nonzero query offsets, so times_c != times."""
    disc = Discretization.from_times(sched, heuristic_times("edm", sched, nfe))
    disc.xi_c[:] = 0.01 * (sched.T - sched.t_min) * np.sin(np.arange(nfe + 1))
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
    res = pair_grads(disc, den, sched, spec, xs, ys, checkpointed, True)
    assert res.loss.shape == (5,)
    for j in range(5):
        one = pair_grads(disc, den, sched, spec, xs[j], ys[j], checkpointed,
                         True)
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


def test_mlp_batch_rows_match_single_rows():
    # a batch runs as one matrix product and a single row as a vector one,
    # which may round the last bits differently
    sched = config.build_schedule(config.DEFAULTS)
    den = MlpDenoiser.create(sched, d=2, seed=3)
    xs = rng.sample_prior(sched, 2, 200, 4)
    for t in (0.01, 1.9, 60.0):
        batch = den.epsilon(xs, t)
        rows = np.stack([den.epsilon(x, t) for x in xs])
        np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12)
