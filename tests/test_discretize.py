"""Time grids: frozen anchors for the cumulative-softmax map and the
heuristics, inversion round-trips, and the monotonicity property."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steplab.discretize import (HEURISTICS, Discretization, heuristic_times,
                                init_from_times, load_checkpoint,
                                query_times, save_checkpoint, tau)
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import GridError, SolverSpec

VE = ve_edm()
VP = vp_linear()


def test_tau_uniform_anchor():
    got = tau(np.zeros(5), 80.0, 0.002)
    np.testing.assert_allclose(
        got, [80.0, 60.0005, 40.001, 20.0015, 0.002], rtol=0, atol=1e-12)


def test_tau_endpoints_exact_regardless_of_xi():
    g = np.random.default_rng(0)
    for _ in range(50):
        xi = g.normal(size=7) * 3.0
        t = tau(xi, 80.0, 0.002)
        assert t[0] == 80.0
        assert t[-1] == 0.002


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=-12.0, max_value=12.0),
                min_size=2, max_size=12))
def test_tau_strictly_decreasing(xs):
    # logit spread 24 keeps every interval width far above one ulp of T;
    # beyond ~36 the widths drop below float resolution and tau raises
    t = tau(np.array(xs), 80.0, 0.002)
    assert np.all(np.diff(t) < 0.0)


def test_tau_underflow_guard():
    with pytest.raises(GridError, match="underflow"):
        tau(np.array([-40.0, 40.0]), 80.0, 0.002)


def test_query_times_clamped_to_domain():
    xi = np.zeros(4)
    xi_c = np.array([50.0, 0.0, -100.0, 0.0])
    tc = query_times(tau(xi, 80.0, 0.002), xi_c, 80.0, 0.002)
    assert tc[0] == 80.0      # pushed above T, clamped back
    assert tc[2] == 0.002     # pushed below t_min
    assert np.all((tc >= 0.002) & (tc <= 80.0))


# ------------------------------------------------------------------ heuristics


def test_uniform_anchor():
    got = heuristic_times("uniform", VE, 4)
    np.testing.assert_allclose(
        got, [80.0, 60.0005, 40.001, 20.0015, 0.002], rtol=0, atol=1e-12)


def test_quadratic_anchor():
    got = heuristic_times("quadratic", VE, 2)
    np.testing.assert_allclose(got, [80.0, 20.0015, 0.002], atol=1e-12)


def test_logsnr_anchor_geometric_mean():
    got = heuristic_times("logsnr", VE, 2)
    np.testing.assert_allclose(got, [80.0, 0.4, 0.002], rtol=1e-12)


@pytest.mark.parametrize("kind", HEURISTICS)
@pytest.mark.parametrize("sched", [VE, VP])
def test_heuristics_decreasing_with_exact_endpoints(kind, sched):
    for nfe in (1, 2, 5, 12):
        g = heuristic_times(kind, sched, nfe)
        assert g.shape == (nfe + 1,)
        assert g[0] == sched.T and g[-1] == sched.t_min
        assert np.all(np.diff(g) < 0.0)


def test_unknown_heuristic_rejected():
    with pytest.raises(GridError):
        heuristic_times("cosine", VE, 4)
    with pytest.raises(GridError):
        heuristic_times("uniform", VE, 0)


# ------------------------------------------------------------------ inversion


@pytest.mark.parametrize("kind", HEURISTICS)
def test_init_from_times_roundtrip(kind):
    want = heuristic_times(kind, VE, 6)
    xi = init_from_times(want, VE.T, VE.t_min)
    got = tau(xi, VE.T, VE.t_min)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


def test_uniform_grid_inverts_to_constant_xi():
    xi = init_from_times(heuristic_times("uniform", VE, 5), VE.T, VE.t_min)
    np.testing.assert_allclose(xi, xi[0], rtol=1e-12)


def test_init_from_times_validation():
    with pytest.raises(GridError, match="decreasing"):
        init_from_times(np.array([80.0, 81.0, 0.002]), 80.0, 0.002)
    with pytest.raises(GridError, match="endpoints"):
        init_from_times(np.array([79.0, 40.0, 0.002]), 80.0, 0.002)
    with pytest.raises(GridError, match="two points"):
        init_from_times(np.array([80.0]), 80.0, 0.002)


# -------------------------------------------------------------- discretization


def test_discretization_defaults_to_uniform():
    disc = Discretization.create(VE, 4)
    np.testing.assert_allclose(disc.times(),
                               heuristic_times("uniform", VE, 4), atol=1e-12)
    np.testing.assert_array_equal(disc.times_c(), disc.times())


def test_discretization_copies_inputs():
    xi = np.zeros(5)
    disc = Discretization.create(VE, 4, xi=xi)
    xi[0] = 99.0
    assert disc.xi[0] == 0.0


def test_discretization_shape_check():
    with pytest.raises(GridError):
        Discretization.create(VE, 4, xi=np.zeros(3))


def test_from_times_matches_grid():
    want = heuristic_times("edm", VE, 5)
    disc = Discretization.from_times(VE, want)
    np.testing.assert_allclose(disc.times(), want, rtol=1e-10, atol=1e-10)


# ------------------------------------------------------------------ checkpoint


def test_checkpoint_roundtrip(tmp_path):
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 4))
    disc.xi_c[:] = 0.01
    spec = SolverSpec(family="dpmpp", order=2, nfe=4)
    p = tmp_path / "ck.json"
    save_checkpoint(p, disc, spec)
    back, solver = load_checkpoint(p, VE)
    np.testing.assert_array_equal(back.xi, disc.xi)
    np.testing.assert_array_equal(back.xi_c, disc.xi_c)
    np.testing.assert_allclose(back.times(), disc.times(), atol=1e-15)
    assert solver == spec


SPECS = [("euler", 1), ("dpmpp", 1), ("dpmpp", 2), ("ipndm", 1),
         ("ipndm", 2), ("ipndm", 3), ("ipndm", 4)]


@st.composite
def checkpoint_grids(draw):
    nfe = draw(st.integers(min_value=1, max_value=12))
    # a spread of at most 24 keeps tau strictly decreasing, as checked above
    xi = draw(st.lists(st.floats(min_value=-12.0, max_value=12.0),
                       min_size=nfe + 1, max_size=nfe + 1))
    xi_c = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                         min_size=nfe + 1, max_size=nfe + 1))
    return nfe, xi, xi_c, draw(st.sampled_from(SPECS)), \
        draw(st.sampled_from([VE, VP]))


@settings(max_examples=60, deadline=None)
@given(checkpoint_grids())
def test_checkpoint_save_load_roundtrip(grid):
    nfe, xi, xi_c, (family, order), sched = grid
    disc = Discretization.create(sched, nfe, xi=xi, xi_c=xi_c)
    spec = SolverSpec(family=family, order=order, nfe=nfe)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "ck.json"
        save_checkpoint(p, disc, spec)
        back, solver = load_checkpoint(p, sched)
    assert back.nfe == nfe
    np.testing.assert_array_equal(back.xi, disc.xi)
    np.testing.assert_array_equal(back.xi_c, disc.xi_c)
    np.testing.assert_array_equal(back.times(), disc.times())
    np.testing.assert_array_equal(back.times_c(), disc.times_c())
    assert solver == spec


def test_checkpoint_bytes_deterministic(tmp_path):
    disc = Discretization.from_times(VE, heuristic_times("edm", VE, 3))
    spec = SolverSpec(family="ipndm", order=4, nfe=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, disc, spec)
    save_checkpoint(p2, disc, spec)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_other_schedule(tmp_path):
    disc = Discretization.create(VE, 3)
    p = tmp_path / "ck.json"
    save_checkpoint(p, disc, SolverSpec(family="euler", order=1, nfe=3))
    with pytest.raises(GridError):
        load_checkpoint(p, ve_edm(T=40.0))


@pytest.mark.parametrize("n", [0, -2])
def test_checkpoint_rejects_fewer_than_one_step(tmp_path, n):
    disc = Discretization.create(VE, 3)
    p = tmp_path / "ck.json"
    save_checkpoint(p, disc, SolverSpec(family="euler", order=1, nfe=3))
    blob = json.loads(p.read_text())
    blob.update(N=n, xi=[0.0], xi_c=[0.0], times=[VE.T], times_c=[VE.T])
    blob["solver"]["nfe"] = n
    p.write_text(json.dumps(blob))
    with pytest.raises(GridError, match=f"field N = {n} must be >= 1"):
        load_checkpoint(p, VE)
