"""Stream splitting: substreams must be reproducible, order-free, and
distinct across tags; the re-keyed loop of `substreams` must give the
same draws as one fresh `substream` per index, also when loops run side
by side, nest, or are left early."""

import hashlib

import numpy as np
import pytest

from steplab import config, evaluate
from steplab.rng import (derive_seed, sample_prior, splitmix64, substream,
                         substreams)
from steplab.schedule import ve_edm, vp_linear


def test_splitmix64_is_pure_u64():
    vals = {splitmix64(x) for x in (0, 1, 2, 2 ** 64 - 1)}
    assert len(vals) == 4
    for v in vals:
        assert 0 <= v < 2 ** 64
    assert splitmix64(12345) == splitmix64(12345)


def test_derive_seed_separates_tags():
    s = derive_seed(0, "prior", 3)
    assert s == derive_seed(0, "prior", 3)
    assert s != derive_seed(0, "prior", 4)
    assert s != derive_seed(0, "gm_data", 3)
    assert s != derive_seed(1, "prior", 3)


def test_substream_independent_of_draw_order():
    a = substream(9, "x", 0).standard_normal(4)
    _ = substream(9, "x", 1).standard_normal(100)  # interleaved other stream
    b = substream(9, "x", 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_sample_prior_scale_and_determinism():
    sched = ve_edm()
    xs = sample_prior(sched, 3, 2000, seed=4)
    assert xs.shape == (2000, 3)
    assert abs(xs.std() - sched.sigma_T) / sched.sigma_T < 0.05
    np.testing.assert_array_equal(xs, sample_prior(sched, 3, 2000, seed=4))
    # per-index substreams: a longer draw starts with the same rows
    more = sample_prior(sched, 3, 2001, seed=4)
    np.testing.assert_array_equal(more[:2000], xs)


def draw_mix(g, d=3):
    """The draws of one `estimate_bound` sample, a permutation, and an odd
    count of 32-bit integers, which leaves half a 64-bit word buffered."""
    return b"".join(np.asarray(x).tobytes() for x in (
        g.standard_normal(d), g.standard_normal(d), g.random(),
        g.permutation(5), g.integers(0, 9, size=3, dtype=np.int32)))


def fresh(seed, tag, count):
    return [draw_mix(substream(seed, tag, i)) for i in range(count)]


def one_loop(seed, count):
    return [draw_mix(g) for g in substreams(seed, "bound", count)]


def zipped(seed, count):
    """Two loops advanced together: each must hold its own generator."""
    got, other = [], []
    for g, h in zip(substreams(seed, "bound", count),
                    substreams(seed, "prior", count)):
        got.append(draw_mix(g))
        other.append(draw_mix(h))
    assert other == fresh(seed, "prior", count)
    return got


def abandoned(seed, count):
    """A loop left after its first draw, then a fresh loop on the seed."""
    for g in substreams(seed, "bound", count):
        g.standard_normal(3)
        break
    return one_loop(seed, count)


def nested(seed, count):
    """A loop opened in another loop's body, before the outer one draws."""
    got = []
    for g in substreams(seed, "bound", count):
        assert one_loop(seed, 2) == fresh(seed, "bound", 2)
        got.append(draw_mix(g))
    return got


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 7, 2 ** 64 - 1, -1])
@pytest.mark.parametrize("count", [0, 1, 33])
def test_substreams_equal_fresh_substreams(seed, count):
    want = fresh(seed, "bound", count)
    for loop in (one_loop, zipped, abandoned, nested):
        assert loop(seed, count) == want, loop.__name__


def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, np.float64).tobytes()).hexdigest()


def test_draws_match_recorded_digests(monkeypatch):
    # digests of the draws as made before `substreams` existed
    assert sha(sample_prior(ve_edm(), 2, 8, 0)) == (
        "350b823602294c2e0fef50afb51316909104a159cea67611e747b14f93cbeb6b")
    assert sha(sample_prior(vp_linear(), 3, 5, 2 ** 63 + 7)) == (
        "fbc956dad7805ab8ac4aae979236190b13bdd5219773697c0960032e686d4f56")
    sched = config.build_schedule(config.DEFAULTS)
    den = config.build_denoiser(config.DEFAULTS, sched)
    assert sha(den.sample_data(16, 3)) == (
        "bec36da051d09318ff19e9eff57991ee4d7f2cca5940a21393bc87129bd19401")
    seen = []

    def record(fn, xs):
        seen.append(np.array(xs))
        return np.zeros(len(xs))

    monkeypatch.setattr(evaluate, "log_abs_det_jacobian", record)
    # 30 samples: two log-det chunks, teacher centres then student points
    evaluate.estimate_bound(None, None, sched, 0.19, 3, 30, 11)
    assert sha(np.concatenate(seen[0::2])) == (
        "03256c399968ba0ca29295740869b4f1948f7949ecf97b5d2f385329004df5de")
    assert sha(np.concatenate(seen[1::2])) == (
        "c7d7251fa342e3cb8b9ca5dea408f08fb9962ff1448d9fb76e9025454e66557b")
