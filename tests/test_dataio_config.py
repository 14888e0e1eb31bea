"""On-disk formats: binary dataset layout, CSV/JSON writers, and the key=value
config dialect with its builders."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from steplab.config import (DEFAULTS, ConfigError, build_denoiser,
                            build_schedule, build_solver_spec, build_teacher,
                            build_train_config, format_config, load_config,
                            parse_config, write_snapshot)
from steplab.dataio import (BENCH_HEADER, METRICS_HEADER, SWEEP_HEADER,
                            FormatError, load_dataset, save_dataset,
                            write_bench_csv, write_bound_json,
                            write_cross_csv, write_metrics_csv,
                            write_sweep_csv)
from steplab.denoisers import GMDenoiser
from steplab.evaluate import BoundReport
from steplab.training import Dataset, TrainConfig, TrainReport


def toy_dataset(count=5, d=3, seed=7):
    g = np.random.default_rng(seed)
    return Dataset(x_T=g.normal(size=(count, d)),
                   x_prime=g.normal(size=(count, d)),
                   y=g.normal(size=(count, d)),
                   seed=seed, schedule_hash=0xDEADBEEF12345678)


# ------------------------------------------------------------- dataset binary


def test_dataset_roundtrip(tmp_path):
    ds = toy_dataset()
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    back = load_dataset(p)
    np.testing.assert_array_equal(back.x_T, ds.x_T)
    np.testing.assert_array_equal(back.x_prime, ds.x_prime)
    np.testing.assert_array_equal(back.y, ds.y)
    assert back.seed == 7
    assert back.schedule_hash == ds.schedule_hash


@st.composite
def datasets(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    d = draw(st.integers(min_value=1, max_value=4))
    rows = hnp.arrays(np.float64, (count, d),
                      elements=st.floats(allow_nan=False, allow_infinity=False))
    return Dataset(x_T=draw(rows), x_prime=draw(rows), y=draw(rows),
                   seed=draw(st.integers(0, 2**64 - 1)),
                   schedule_hash=draw(st.integers(0, 2**64 - 1)))


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_dataset_save_load_roundtrip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.bin"
        save_dataset(p, ds)
        back = load_dataset(p)
    for name in ("x_T", "x_prime", "y"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
    assert (back.seed, back.schedule_hash) == (ds.seed, ds.schedule_hash)


def test_dataset_file_size_is_header_plus_records(tmp_path):
    ds = toy_dataset(count=5, d=3)
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    assert p.stat().st_size == 32 + 5 * 3 * 3 * 8


def test_dataset_bytes_deterministic(tmp_path):
    ds = toy_dataset()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_rejects_bad_magic(tmp_path):
    ds = toy_dataset(count=2)
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    blob = bytearray(p.read_bytes())
    blob[:4] = b"NOPE"
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_dataset(p)


def test_dataset_rejects_bad_version(tmp_path):
    ds = toy_dataset(count=2)
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    blob = bytearray(p.read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    p.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_dataset(p)


def test_dataset_rejects_truncation(tmp_path):
    ds = toy_dataset(count=2)
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    blob = p.read_bytes()
    p.write_bytes(blob[:16])
    with pytest.raises(FormatError, match="header"):
        load_dataset(p)
    p.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="bytes"):
        load_dataset(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_dataset_rejects_non_finite_records(tmp_path, bad):
    ds = toy_dataset(count=5, d=3)
    ds.y[3, 1] = bad
    ds.x_prime[4, 0] = bad  # only the first bad record is named
    p = tmp_path / "d.bin"
    save_dataset(p, ds)
    with pytest.raises(FormatError, match="record 3 "):
        load_dataset(p)


# ----------------------------------------------------------------- CSV / JSON


def fake_report():
    rep = TrainReport(init_kind="logsnr", init_val_loss=0.5)
    rep.iter_rows = [(1, 1, 1, 0.25, 0.005, 0.0), (2, 1, 1, 1 / 3, 0.005, 0.0)]
    rep.epoch_rows = [(1, 1, 0.2, 0.005, 0.0, 1.25)]
    return rep


def test_metrics_csv_layout(tmp_path):
    p = tmp_path / "m.csv"
    write_metrics_csv(p, fake_report())
    lines = p.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 1 + 2 + 1
    it_cells = lines[1].split(",")
    assert it_cells[0] == "1" and it_cells[4] == "" and it_cells[7] == ""
    assert float(lines[2].split(",")[3]) == 1 / 3  # repr round-trips floats
    ep_cells = lines[3].split(",")
    assert ep_cells[0] == "" and ep_cells[4] == "0.2" and ep_cells[7] == "1.25"


def test_bench_csv_layout(tmp_path):
    p = tmp_path / "b.csv"
    rows = [("uniform", "dpmpp2", 4, 0.5, 0.1, float("nan"), 3)]
    write_bench_csv(p, rows)
    lines = p.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert lines[1] == "uniform,dpmpp2,4,0.5,0.1,nan,3"


def test_sweep_csv_layout(tmp_path):
    p = tmp_path / "s.csv"
    write_sweep_csv(p, [(0.0, 0.5), (1.0, 0.25)])
    lines = p.read_text().splitlines()
    assert lines == [SWEEP_HEADER, "0.0,0.5", "1.0,0.25"]


def test_cross_csv_layout(tmp_path):
    p = tmp_path / "c.csv"
    write_cross_csv(p, np.array([[1.0, 2.0], [3.0, 4.0]]), ["euler1", "dpmpp2"])
    lines = p.read_text().splitlines()
    assert lines[0] == "trained,euler1,dpmpp2"
    assert lines[1] == "euler1,1.0,2.0"
    assert lines[2] == "dpmpp2,3.0,4.0"


def test_bound_json_layout(tmp_path):
    p = tmp_path / "bound.json"
    rep = BoundReport(r=0.5, d=2, term1=0.125, term2=0.75, term3=0.1,
                      n_samples=10)
    write_bound_json(p, rep, seed=4)
    text = p.read_text()
    assert text.endswith("\n")
    got = json.loads(text)
    assert got == {"r": 0.5, "d": 2, "term1": 0.125, "term2": 0.75,
                   "term3": 0.1, "total": 0.975, "n_samples": 10, "seed": 4}
    assert list(got) == sorted(got)  # keys written in sorted order


# --------------------------------------------------------------------- config


def test_parse_empty_gives_defaults():
    assert parse_config("") == DEFAULTS
    assert load_config(None) == DEFAULTS


def test_parse_overrides_comments_blank_lines():
    cfg = parse_config("""
# a comment
seed = 9

solver.nfe = 6   # trailing comment
data.kind = point
""")
    assert cfg["seed"] == 9
    assert cfg["solver.nfe"] == 6
    assert cfg["data.kind"] == "point"
    assert cfg["schedule.T"] == DEFAULTS["schedule.T"]


def test_parse_tuple_values_bare_and_parenthesized():
    cfg = parse_config("data.weights = 0.5, 0.5\nbench.nfes = (4, 8)\n")
    assert cfg["data.weights"] == (0.5, 0.5)
    assert cfg["bench.nfes"] == (4, 8)
    cfg2 = parse_config("bench.methods = uniform, learned\n")
    assert cfg2["bench.methods"] == ("uniform", "learned")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1: unknown key"):
        parse_config("nope = 1")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("seed = 1\n\nseed = 2")
    with pytest.raises(ConfigError, match="line 2: expected key = value"):
        parse_config("seed = 1\njust words")
    with pytest.raises(ConfigError, match="bad value for seed"):
        parse_config("seed = banana")


def test_format_config_roundtrips(tmp_path):
    cfg = dict(DEFAULTS)
    cfg["seed"] = 3
    cfg["sweep.r_values"] = (0.0, 0.5, 2.0)
    assert parse_config(format_config(cfg)) == cfg
    p = tmp_path / "snap.txt"
    write_snapshot(cfg, p)
    assert load_config(p) == cfg


_WORD = "abcdefghijklmnopqrstuvwxyz0123456789_.-/"
_SCALARS = {int: st.integers(-10**9, 10**9), float: st.floats(allow_nan=False),
            str: st.text(_WORD, max_size=10)}


def values_like(default):
    """Values of the type of a DEFAULTS entry; tuple parts are non-empty."""
    if not isinstance(default, tuple):
        return _SCALARS[type(default)]
    elem = type(default[0])
    part = st.text(_WORD, min_size=1, max_size=10) if elem is str \
        else _SCALARS[elem]
    return st.lists(part, max_size=5).map(tuple)


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS)), unique=True,
                         max_size=12))
    return {k: draw(values_like(DEFAULTS[k])) for k in keys}


@settings(max_examples=100, deadline=None)
@given(overrides())
def test_format_parse_roundtrips_random_overrides(extra):
    cfg = {**DEFAULTS, **extra}
    assert parse_config(format_config(cfg)) == cfg


# ------------------------------------------------------------------- builders


def test_build_schedule_families():
    assert build_schedule(dict(DEFAULTS)).family == "ve_edm"
    vp = dict(DEFAULTS)
    vp["schedule.family"] = "vp_linear"
    vp["schedule.T"] = 1.0
    vp["schedule.t_min"] = 1e-3
    assert build_schedule(vp).family == "vp_linear"
    bad = dict(DEFAULTS)
    bad["schedule.family"] = "cosine"
    with pytest.raises(ConfigError):
        build_schedule(bad)


def test_build_denoiser_kinds():
    cfg = dict(DEFAULTS)
    sched = build_schedule(cfg)
    assert isinstance(build_denoiser(cfg, sched), GMDenoiser)
    cfg_pt = dict(cfg)
    cfg_pt["data.kind"] = "point"
    point = build_denoiser(cfg_pt, sched)
    assert isinstance(point, GMDenoiser)
    assert point.weights.tolist() == [1.0] and point.variances.tolist() == [0.0]
    assert np.array_equal(point.means,
                          np.array(cfg["data.means"][:cfg["data.d"]])[None, :])
    cfg_bad = dict(cfg)
    cfg_bad["data.kind"] = "swirl"
    with pytest.raises(ConfigError):
        build_denoiser(cfg_bad, sched)
    cfg_short = dict(cfg)
    cfg_short["data.means"] = (1.0, 2.0, 3.0)  # not K*d values
    with pytest.raises(ConfigError):
        build_denoiser(cfg_short, sched)


def test_build_solver_spec():
    cfg = dict(DEFAULTS)
    spec = build_solver_spec(cfg)
    assert (spec.family, spec.order, spec.nfe) == \
        (cfg["solver.family"], cfg["solver.order"], cfg["solver.nfe"])
    cfg_bad = dict(cfg)
    cfg_bad["solver.family"] = "rk45"
    with pytest.raises(ConfigError):
        build_solver_spec(cfg_bad)


def test_build_teacher_and_train_config():
    cfg = dict(DEFAULTS)
    sched = build_schedule(cfg)
    den = build_denoiser(cfg, sched)
    teacher = build_teacher(cfg, den, sched)
    assert teacher.spec.nfe == cfg["teacher.nfe"]
    assert teacher.times.shape == (cfg["teacher.nfe"] + 1,)
    assert build_train_config(dict(DEFAULTS)) == \
        TrainConfig(seed=DEFAULTS["seed"])
    tc = build_train_config(cfg)
    assert tc.seed == cfg["seed"]
    assert tc.r_override == cfg["train.r"]
    assert tc.init == cfg["train.init"]
