"""Time grids: frozen anchors for the cumulative-softmax map and the
heuristics, inversion round-trips, and the monotonicity property."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steplab import engine as en
from steplab.denoisers import GMDenoiser
from steplab.discretize import (HEURISTICS, Discretization, heuristic_times,
                                init_from_times, load_checkpoint,
                                query_times, query_times_transpose,
                                save_checkpoint, tau, tau_transpose)
from steplab.schedule import ve_edm, vp_linear
from steplab.solvers import GridError, SolverSpec, checked_shared

VE = ve_edm()
VP = vp_linear()


def test_tau_uniform_anchor():
    got = tau(np.zeros(4), 80.0, 0.002)
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
                min_size=1, max_size=12))
def test_tau_strictly_decreasing(xs):
    # logit spread 24 keeps every interval width far above one ulp of T;
    # beyond ~36 the widths drop below float resolution and times tie
    t = tau(np.array(xs), 80.0, 0.002)
    assert t.shape == (len(xs) + 1,)
    assert np.all(np.diff(t) < 0.0)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_tau_and_query_transposes_equal_their_tapes(n):
    """The closed-form transposes of tau and of the query times give the
    gradients a tape of their fine ops gives, to 1e-12, with query times
    clamped at T (first step) and at t_min (last)."""
    g = np.random.default_rng(n)
    xi, xi_c = 0.5 * g.standard_normal(n), g.uniform(-1.0, 1.0, n)
    xi_c[0], xi_c[-1] = 5.0, -100.0
    g_times, g_c = g.standard_normal(n + 1), g.standard_normal(n)
    tape = en.Tape()
    xv, cv = tape.leaf(xi), tape.leaf(xi_c)
    times = tau(xv, 80.0, 0.002)
    times_c = query_times(times, cv, 80.0, 0.002)
    assert times_c.data[0] == 80.0 and times_c.data[-1] == 0.002
    want = tape.backward([(times, g_times), (times_c, g_c)], [xv, cv])
    gt, got_c = query_times_transpose(times.data, xi_c, 80.0, 0.002, g_c)
    got = tau_transpose(xi, 80.0, 0.002, g_times + gt)
    for a, b in zip((got, got_c), want):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_tau_underflow_guard():
    # the first interval's mass is below float resolution: t_1 ties T, and
    # the grid check refuses the tie
    times = tau(np.array([-40.0, 40.0]), 80.0, 0.002)
    assert times[0] == times[1] == 80.0
    den = GMDenoiser.create(VE, [1.0], [[0.0, 0.0]], [0.25])
    with pytest.raises(GridError, match="strictly decreasing"):
        checked_shared(den, VE, SolverSpec("euler", 1, 2), times)


@pytest.mark.parametrize("shift", [-30.0, -1.0, 0.5, 7.0, 700.0])
def test_tau_invariant_under_a_common_shift(shift):
    g = np.random.default_rng(3)
    for nfe in (1, 4, 8, 16):
        xi = 2.0 * g.standard_normal(nfe)
        for sched in (VE, VP):
            want = tau(xi, sched.T, sched.t_min)
            got = tau(xi + shift, sched.T, sched.t_min)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


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
    """tau(init_from_times(t)) = t to a few float64 spacings of T under VE
    and VP, with both endpoints exact."""
    worst = 0.0
    for sched in (VE, VP):
        for nfe in (1, 2, 4, 6, 8, 16, 100):
            want = heuristic_times(kind, sched, nfe)
            got = tau(init_from_times(want, sched.T, sched.t_min), sched.T,
                      sched.t_min)
            assert got[0] == sched.T and got[-1] == sched.t_min
            worst = max(worst, float(np.max(np.abs(got - want))
                                     / np.spacing(sched.T)))
    print(f"{kind}: worst round-trip error {worst:g} spacings of T")
    assert worst <= 16.0


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
    np.testing.assert_array_equal(disc.times_c(), disc.times()[:-1])


def test_discretization_copies_inputs():
    xi = np.zeros(4)
    disc = Discretization.create(VE, 4, xi=xi)
    xi[0] = 99.0
    assert disc.xi[0] == 0.0


def test_discretization_shape_check():
    # N entries each: neither N - 1 nor N + 1 logits or offsets
    for n in (3, 5):
        with pytest.raises(GridError, match=r"shape \(4,\)"):
            Discretization.create(VE, 4, xi=np.zeros(n))
        with pytest.raises(GridError, match=r"shape \(4,\)"):
            Discretization.create(VE, 4, xi_c=np.zeros(n))


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
                       min_size=nfe, max_size=nfe))
    xi_c = draw(st.lists(st.floats(min_value=-2.0, max_value=2.0),
                         min_size=nfe, max_size=nfe))
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


@pytest.mark.parametrize("field", ["xi", "xi_c"])
def test_checkpoint_refuses_n_plus_one_entries(tmp_path, field):
    """A checkpoint that stores N + 1 logits or offsets, as the grid once
    did, is refused naming the field."""
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 4))
    p = tmp_path / "ck.json"
    save_checkpoint(p, disc, SolverSpec(family="dpmpp", order=2, nfe=4))
    blob = json.loads(p.read_text())
    blob[field] = blob[field] + [0.0]
    p.write_text(json.dumps(blob))
    with pytest.raises(GridError,
                       match=f"checkpoint field {field} has 5 entries, "
                             f"not N = 4"):
        load_checkpoint(p, VE)


def test_checkpoint_names_a_short_times_field(tmp_path):
    """A times field one entry short, still strictly decreasing, is refused
    for its length, naming the field and both lengths."""
    disc = Discretization.from_times(VE, heuristic_times("logsnr", VE, 4))
    p = tmp_path / "ck.json"
    save_checkpoint(p, disc, SolverSpec(family="dpmpp", order=2, nfe=4))
    blob = json.loads(p.read_text())
    blob["times"] = blob["times"][:-1]
    p.write_text(json.dumps(blob))
    with pytest.raises(GridError, match=r"checkpoint field times has 4 "
                                        r"entries, not N \+ 1 = 5$"):
        load_checkpoint(p, VE)
