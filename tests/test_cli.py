"""End-to-end command line runs in a temp workspace: artifacts, reruns,
seed overrides, and the error paths that must exit with status 2."""

import json
import os
import struct
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

from steplab import cli
from steplab.cli import main
from steplab.dataio import load_dataset, save_dataset
from steplab.solvers import DivergenceError

SMALL_CFG = """\
seed = 0
data.count = 8
solver.nfe = 3
teacher.nfe = 30
train.epochs_phase1 = 1
train.epochs_phase2 = 1
sample.count = 6
bench.nfes = 3
bench.methods = logsnr,learned
bench.eval_count = 8
bench.rmsd_ref_nfe = 30
sweep.r_values = 0.0,1.0
cross.families = euler,dpmpp
bound.r = 0.5
bound.samples = 4
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a config, a generated dataset, and one training run."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    data = root / "dataset.bin"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    run = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    return root


def cfg_of(ws):
    return str(ws / "small.cfg")


def data_of(ws):
    return str(ws / "dataset.bin")


# ----------------------------------------------------------------- happy path


def test_gen_data_artifacts(ws):
    data = ws / "dataset.bin"
    # 32-byte header + count * 3 * d * 8 record bytes
    assert data.stat().st_size == 32 + 8 * 3 * 2 * 8
    assert (ws / "dataset.bin.config.txt").exists()
    magic, version, d, count, _, seed = struct.unpack(
        "<4sIIIQQ", data.read_bytes()[:32])
    assert (magic, version, d, count, seed) == (b"LD3D", 1, 2, 8, 0)


def test_gen_data_rerun_is_byte_identical(ws, tmp_path):
    other = tmp_path / "again.bin"
    assert main(["gen-data", "--config", cfg_of(ws), "--out",
                 str(other)]) == 0
    assert other.read_bytes() == (ws / "dataset.bin").read_bytes()


def test_gen_data_seed_override(ws, tmp_path):
    other = tmp_path / "seeded.bin"
    assert main(["gen-data", "--config", cfg_of(ws), "--out", str(other),
                 "--seed", "5"]) == 0
    header = struct.unpack("<4sIIIQQ", other.read_bytes()[:32])
    assert header[5] == 5
    assert other.read_bytes() != (ws / "dataset.bin").read_bytes()


def test_train_artifacts(ws):
    run = ws / "run"
    assert (run / "checkpoint.json").exists()
    assert (run / "config.txt").exists()
    metrics = (run / "metrics.csv").read_text().splitlines()
    assert metrics[0] == \
        "iter,epoch,phase,train_loss,val_loss,lr_xi,lr_xic,wall_s"
    # 8 pairs -> 4 train pairs -> 2 iters/epoch; 2 epochs plus 2 summary rows
    assert len(metrics) == 1 + 4 + 2
    ckpt = json.loads((run / "checkpoint.json").read_text())
    assert ckpt["solver"]["family"] == "dpmpp"
    assert ckpt["solver"]["nfe"] == 3


def strip_wall(text):
    return ["," .join(line.split(",")[:7]) for line in text.splitlines()]


def test_train_rerun_matches_except_wall_clock(ws, tmp_path):
    run2 = tmp_path / "run2"
    assert main(["train", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(run2)]) == 0
    assert (run2 / "checkpoint.json").read_bytes() == \
        (ws / "run" / "checkpoint.json").read_bytes()
    assert strip_wall((run2 / "metrics.csv").read_text()) == \
        strip_wall((ws / "run" / "metrics.csv").read_text())


def sample_cfg(ws, tmp_path, extra=""):
    text = SMALL_CFG + \
        f"sample.checkpoint = {ws / 'run' / 'checkpoint.json'}\n" + extra
    p = tmp_path / "sample.cfg"
    p.write_text(text)
    return str(p)


def test_sample_artifacts_and_determinism(ws, tmp_path):
    cfg = sample_cfg(ws, tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
    samples = np.load(out1 / "samples.npy")
    assert samples.shape == (6, 2)
    assert np.all(np.isfinite(samples))
    assert (out1 / "samples.npy").read_bytes() == \
        (out2 / "samples.npy").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["count"] == 6 and manifest["d"] == 2
    assert manifest["solver"] == {"family": "dpmpp", "order": 2, "nfe": 3}


def test_bench_rows_and_parallel_jobs_match(ws, tmp_path):
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["bench", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(out1)]) == 0
    lines = (out1 / "bench.csv").read_text().splitlines()
    assert lines[0] == "method,solver,nfe,teacher_dist,rmsd,w1,seed"
    assert len(lines) == 1 + 2  # one NFE x two methods
    assert lines[1].startswith("logsnr,dpmpp2,3,")
    assert lines[2].startswith("learned,dpmpp2,3,")
    assert main(["bench", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(out2), "--jobs", "2"]) == 0
    assert (out1 / "bench.csv").read_bytes() == \
        (out2 / "bench.csv").read_bytes()


def test_sweep_r_rows(ws, tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep-r", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "r,best_val_soft"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,") and lines[2].startswith("1.0,")


def test_cross_eval_matrix(ws, tmp_path):
    out = tmp_path / "cr"
    assert main(["cross-eval", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(out)]) == 0
    lines = (out / "cross.csv").read_text().splitlines()
    assert lines[0] == "trained,euler1,dpmpp2"
    assert len(lines) == 3
    assert lines[1].startswith("euler1,") and lines[2].startswith("dpmpp2,")


def test_bound_json(ws, tmp_path, capsys):
    out = tmp_path / "bd"
    assert main(["bound", "--config", cfg_of(ws), "--out", str(out)]) == 0
    got = json.loads((out / "bound.json").read_text())
    assert got["r"] == 0.5 and got["d"] == 2 and got["n_samples"] == 4
    assert got["term1"] == 0.5 * 0.5 ** 2
    assert got["term2"] == pytest.approx(0.5 * np.sqrt(3.0), rel=1e-12)
    assert got["total"] == pytest.approx(
        got["term1"] + got["term2"] + got["term3"], rel=1e-12)
    assert "=" in capsys.readouterr().out


def test_bound_from_checkpoint_grid(ws, tmp_path):
    cfg = sample_cfg(ws, tmp_path, extra="bound.grid = checkpoint\n")
    out = tmp_path / "bd2"
    assert main(["bound", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "bound.json").exists()


# ---------------------------------------------------------------- error paths


def test_train_requires_data(ws, tmp_path, capsys):
    assert main(["train", "--config", cfg_of(ws),
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_schedule_hash_mismatch(ws, tmp_path, capsys):
    cfg2 = tmp_path / "other.cfg"
    cfg2.write_text(SMALL_CFG + "schedule.T = 40.0\n")
    other = tmp_path / "other.bin"
    assert main(["gen-data", "--config", str(cfg2), "--out",
                 str(other)]) == 0
    assert main(["train", "--config", cfg_of(ws), "--data", str(other),
                 "--out", str(tmp_path / "x")]) == 2
    assert "different schedule" in capsys.readouterr().err


def test_sample_needs_checkpoint_key(ws, tmp_path, capsys):
    assert main(["sample", "--config", cfg_of(ws),
                 "--out", str(tmp_path / "s")]) == 2
    assert "sample.checkpoint" in capsys.readouterr().err


def test_sample_rejects_family_mismatch(ws, tmp_path, capsys):
    cfg = sample_cfg(ws, tmp_path, extra="solver.family = euler\n")
    assert main(["sample", "--config", cfg,
                 "--out", str(tmp_path / "s")]) == 2
    assert "family" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sample", "bound"])
@pytest.mark.parametrize("key,value", [("solver.order", 1),
                                       ("solver.nfe", 4)],
                         ids=["order", "nfe"])
def test_checkpoint_solver_must_match_the_config(ws, tmp_path, capsys,
                                                 command, key, value):
    """The checkpoint was trained with dpmpp2 at NFE 3; a config asking
    for another order or NFE is refused, not overridden."""
    cfg = tmp_path / "other.cfg"
    cfg.write_text(overridden(
        SMALL_CFG, f"sample.checkpoint = {ws / 'run' / 'checkpoint.json'}\n"
        f"bound.grid = checkpoint\n{key} = {value}\n"))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} = " in err
    assert not out.exists()


def sample_edited_checkpoint(ws, tmp_path, capsys, edit):
    """Run sample on a copy of the trained checkpoint changed by edit(blob),
    which may instead return the file's whole text; returns the exit code,
    stderr and whether the --out directory was made."""
    blob = json.loads((ws / "run" / "checkpoint.json").read_text())
    text = edit(blob)
    ckpt = tmp_path / "edited.json"
    ckpt.write_text(json.dumps(blob) if text is None else text)
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(SMALL_CFG + f"sample.checkpoint = {ckpt}\n")
    out = tmp_path / "s"
    code = main(["sample", "--config", str(cfg), "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


def parent_of(blob, field):
    """The dict that holds a dotted checkpoint field, and the field's key
    in it."""
    *parents, last = field.split(".")
    for part in parents:
        blob = blob[part]
    return blob, last


@pytest.mark.parametrize("field", ["times", "times_c", "solver.nfe"])
def test_sample_rejects_self_contradicting_checkpoint(ws, tmp_path, capsys,
                                                     field):
    def edit(blob):
        if field == "solver.nfe":
            blob["solver"]["nfe"] += 1
        else:
            blob[field][1] *= 1.0 + 1e-9

    code, err, wrote = sample_edited_checkpoint(ws, tmp_path, capsys, edit)
    assert code == 2 and not wrote
    assert err.startswith("error:") and f"checkpoint {field} " in err


@pytest.mark.parametrize("field", ["N", "times_c", "solver", "solver.order"])
def test_sample_rejects_checkpoint_missing_a_field(ws, tmp_path, capsys,
                                                   field):
    def edit(blob):
        node, last = parent_of(blob, field)
        del node[last]

    code, err, wrote = sample_edited_checkpoint(ws, tmp_path, capsys, edit)
    assert code == 2 and not wrote
    named = "solver.family" if field == "solver" else field
    assert err.startswith("error:") and f"field {named} " in err


@pytest.mark.parametrize("field,value,named", [
    ("truncated", None, "edited.json is not valid JSON"),
    ("N", "five", "field N has the wrong type"),
    ("T", "80", "field T has the wrong type"),
    ("T", float("nan"), "schedule window does not match"),
    ("solver.family", "rk45",
     "checkpoint solver.family = rk45 must be one of euler, dpmpp, ipndm"),
    ("solver.order", 7, "checkpoint solver.order = 7 must be one of 1, 2"),
], ids=["truncated", "N", "T", "T-nan", "solver.family", "solver.order"])
def test_sample_rejects_malformed_checkpoint(ws, tmp_path, capsys, field,
                                             value, named):
    def edit(blob):
        if field == "truncated":
            return json.dumps(blob)[:40]
        node, last = parent_of(blob, field)
        node[last] = value

    code, err, wrote = sample_edited_checkpoint(ws, tmp_path, capsys, edit)
    assert code == 2 and not wrote
    assert err.startswith("error:") and named in err


def test_sample_rejects_checkpoint_without_a_step(ws, tmp_path, capsys):
    def edit(blob):
        blob.update(N=0, xi=blob["xi"][:1], xi_c=blob["xi_c"][:1],
                    times=blob["times"][:1], times_c=blob["times_c"][:1])
        blob["solver"]["nfe"] = 0

    code, err, wrote = sample_edited_checkpoint(ws, tmp_path, capsys, edit)
    assert code == 2 and not wrote
    assert err.startswith("error:") and "field N = 0 must be >= 1" in err


def test_sample_divergence_exits_2_leaving_no_out(ws, tmp_path, capsys,
                                                  monkeypatch):
    def diverging(*args):
        raise DivergenceError(0)

    monkeypatch.setattr(cli, "solve_batch", diverging)
    out = tmp_path / "s"
    assert main(["sample", "--config", sample_cfg(ws, tmp_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite at step 0" in err
    assert not out.exists()


def test_train_rejects_non_finite_dataset_record(ws, tmp_path, capsys):
    blob = bytearray((ws / "dataset.bin").read_bytes())
    # record 2, coordinate 1 of x_T: 32-byte header, 3 * d floats per record
    struct.pack_into("<d", blob, 32 + 8 * (2 * 3 * 2 + 1), float("nan"))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(blob))
    assert main(["train", "--config", cfg_of(ws), "--data", str(bad),
                 "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record 2 " in err


D3_MEANS = "data.d = 3\ndata.means = 2,1,0,-1.4,1.8,0,0.3,-2.2,0\n"


@pytest.mark.parametrize("command", ["train", "bench", "sweep-r",
                                     "cross-eval"])
def test_dataset_of_another_dimension_is_refused(ws, tmp_path, capsys,
                                                 command):
    """The d = 2 dataset under a data.d = 3 config."""
    cfg2 = tmp_path / "d3.cfg"
    cfg2.write_text(SMALL_CFG + D3_MEANS)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg2), "--data", data_of(ws),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "data.d = 3" in err
    assert "d = 2" in err
    assert not out.exists()


def one_pair_dataset(ws, tmp_path):
    ds = load_dataset(data_of(ws))
    one = replace(ds, x_T=ds.x_T[:1], x_prime=ds.x_prime[:1], y=ds.y[:1])
    path = tmp_path / "one.bin"
    save_dataset(str(path), one)
    return str(path)


@pytest.mark.parametrize("command", ["train", "bench"])
def test_training_refuses_a_one_pair_dataset(ws, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main([command, "--config", cfg_of(ws), "--data",
                 one_pair_dataset(ws, tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "validation split is empty" in err
    assert not out.exists()


def test_heuristic_bench_runs_on_a_one_pair_dataset(ws, tmp_path):
    cfg2 = tmp_path / "heur.cfg"
    cfg2.write_text(overridden(SMALL_CFG, "bench.methods = logsnr\n"))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(cfg2), "--data",
                 one_pair_dataset(ws, tmp_path), "--out", str(out)]) == 0
    assert len((out / "bench.csv").read_text().splitlines()) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(ws, tmp_path, capsys, jobs):
    out = tmp_path / "b"
    assert main(["bench", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(out), "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--jobs" in err
    assert not out.exists()


def test_bench_pool_no_larger_than_its_cells(ws, tmp_path, monkeypatch):
    sizes = []

    class InlinePool:
        """Records its size and runs each cell in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    assert main(["bench", "--config", cfg_of(ws), "--data", data_of(ws),
                 "--out", str(tmp_path / "b"), "--jobs", "64"]) == 0
    assert sizes == [2]  # SMALL_CFG has one NFE and two methods


def test_bound_checkpoint_grid_needs_checkpoint(ws, tmp_path, capsys):
    cfg2 = tmp_path / "nockpt.cfg"
    cfg2.write_text(SMALL_CFG + "bound.grid = checkpoint\n")
    assert main(["bound", "--config", str(cfg2),
                 "--out", str(tmp_path / "b")]) == 2
    assert "sample.checkpoint" in capsys.readouterr().err


def test_missing_config_file_is_reported(ws, tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "d.bin")]) == 2
    assert "error:" in capsys.readouterr().err


def overridden(text, extra):
    """Config text with the lines of extra replacing those of the same key."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in text.splitlines(keepends=True)
            if line.split("=")[0].strip() not in keys]
    return "".join(kept) + extra


VP_WINDOW = ("schedule.family = vp_linear\nschedule.T = 1.0\n"
             "schedule.t_min = 0.001\n")


@pytest.mark.parametrize("command,extra,key", [
    ("gen-data", "schedule.t_min = 100.0\n", "schedule.t_min"),
    ("train", "train.batch = 0\n", "train.batch"),
    ("bound", "data.kind = point\ndata.d = 5\n", "data.d"),
    ("sample", "sample.count = 0\n", "sample.count"),
    ("bound", "bound.samples = 0\n", "bound.samples"),
    ("train", "train.epochs_phase1 = 0\ntrain.epochs_phase2 = 0\n",
     "train.epochs_phase1"),
    ("train", "train.val_refresh_steps = -1\n", "train.val_refresh_steps"),
    ("cross-eval", "cross.families =\n", "cross.families"),
    ("sweep-r", "sweep.r_values = 0.0,-0.5\n", "sweep.r_values"),
    ("bound", "bound.r = -0.1\n", "bound.r"),
    ("bench", "bench.eval_count = 0\n", "bench.eval_count"),
    ("gen-data", "data.vars = -0.25,0.16,0.36\n", "data.vars"),
    ("gen-data", "data.vars = 0.25,0.16\n", "data.vars"),
    ("gen-data", "data.weights = 0.5,nan,0.2\n", "data.weights"),
    ("gen-data", "data.kind = point\ndata.d = 9\n", "data.d"),
    ("gen-data", "data.d = 0\n", "data.d"),
    ("gen-data", "data.kind = point\ndata.means = nan,1.0\n", "data.means"),
    ("train", "train.gamma = nan\n", "train.gamma"),
    ("train", "train.lr_xi = nan\n", "train.lr_xi"),
    ("sweep-r", "sweep.r_values = 0.1,nan\n", "sweep.r_values"),
    ("bound", "bound.r = nan\n", "bound.r"),
    ("train", "solver.nfe = 0\n", "solver.nfe"),
    ("cross-eval", "solver.nfe = 0\n", "solver.nfe"),
    ("gen-data", "teacher.nfe = 0\n", "teacher.nfe"),
    ("bench", "bench.nfes = 3,0\n", "bench.nfes"),
    ("bench", "bench.rmsd_ref_nfe = 0\n", "bench.rmsd_ref_nfe"),
    ("bound", "solver.order = 3\n", "solver.order"),
    ("bound", "teacher.order = 3\n", "teacher.order"),
    ("bound", "teacher.grid = foo\n", "teacher.grid"),
    ("bound", "bound.grid = foo\n", "bound.grid"),
    ("bound", "solver.family = foo\n", "solver.family"),
    ("bound", "teacher.family = foo\n", "teacher.family"),
    ("cross-eval", "cross.families = dpmpp,foo\n", "cross.families"),
    ("cross-eval", "solver.order = 3\n", "solver.order"),
    ("gen-data", "data.kind = swirl\n", "data.kind"),
    ("gen-data", "schedule.family = cosine\n", "schedule.family"),
    ("gen-data", "schedule.T = inf\n", "schedule.T"),
    ("bound", "schedule.T = 1e300\n", "schedule.T"),
    ("gen-data", "schedule.family = vp_linear\n", "schedule.T"),
    ("gen-data", "schedule.family = vp_linear\nschedule.T = 12.0\n",
     "schedule.T"),
    ("gen-data", VP_WINDOW + "schedule.beta0 = -1.0\n", "schedule.beta0"),
    ("gen-data", VP_WINDOW + "schedule.beta0 = 5.0\nschedule.beta1 = -5.0\n",
     "schedule.beta1"),
    ("bound", "bound.r = inf\n", "bound.r"),
    ("bound", "bound.r = -inf\n", "bound.r"),
    ("sweep-r", "sweep.r_values = 0.0,inf\n", "sweep.r_values"),
    ("train", "train.init = foo\n", "train.init"),
    ("bench", "train.init = foo\n", "train.init"),
    ("gen-data", "data.count = 1\n", "data.count"),
    ("train", "train.r = inf\n", "train.r"),
    ("train", "train.r = -inf\n", "train.r"),
    ("train", "train.gamma = inf\n", "train.gamma"),
    ("train", "train.gamma = -1\n", "train.gamma"),
    ("train", "train.lr_xi = inf\n", "train.lr_xi"),
    ("train", "train.lr_xic = inf\n", "train.lr_xic"),
    ("train", "train.lr_xprime = inf\n", "train.lr_xprime"),
    # retired keys: the clipping and plateau schedule is fixed
    ("train", "train.clip_norm = -1\n", "train.clip_norm"),
    ("train", "train.plateau_factor = 1e300\n", "train.plateau_factor"),
    ("train", "train.plateau_patience = 0\n", "train.plateau_patience"),
    ("train", "train.lr_floor_xi = inf\n", "train.lr_floor_xi"),
    ("train", "train.lr_floor_xic = inf\n", "train.lr_floor_xic"),
    ("gen-data", "data.vars = 0.25,inf,0.36\n", "data.vars"),
    ("gen-data", "data.vars = 0.25,1e308,0.36\n", "data.vars"),
    ("gen-data", "data.weights = 0.5,inf,0.2\n", "data.weights"),
    ("gen-data", "data.weights = 1e308,1e308,1e308\n", "data.weights"),
], ids=["schedule.t_min", "train.batch", "data.d", "sample.count",
        "bound.samples", "train.epochs", "train.val_refresh_steps",
        "cross.families", "sweep.r_values", "bound.r", "bench.eval_count",
        "data.vars-negative", "data.vars-count", "data.weights-nan",
        "data.d-point-past-means", "data.d-zero", "data.means-nan",
        "train.gamma-nan", "train.lr_xi-nan", "sweep.r_values-nan",
        "bound.r-nan", "solver.nfe", "cross-eval-solver.nfe", "teacher.nfe",
        "bench.nfes", "bench.rmsd_ref_nfe", "solver.order", "teacher.order",
        "teacher.grid", "bound.grid", "solver.family", "teacher.family",
        "cross.families-unknown", "cross-eval-solver.order", "data.kind",
        "schedule.family", "schedule.T-inf", "schedule.T-sigma-overflow",
        "vp-alpha_T-zero",
        "vp-alpha_T-subnormal", "vp-beta0-negative", "vp-beta1-negative",
        "bound.r-inf", "bound.r-minus-inf", "sweep.r_values-inf",
        "train.init", "bench-train.init", "data.count", "train.r-inf",
        "train.r-minus-inf", "train.gamma-inf", "train.gamma-negative",
        "train.lr_xi-inf", "train.lr_xic-inf", "train.lr_xprime-inf",
        "retired-train.clip_norm", "retired-train.plateau_factor",
        "retired-train.plateau_patience", "retired-train.lr_floor_xi",
        "retired-train.lr_floor_xic", "data.vars-inf", "data.vars-2v-overflow",
        "data.weights-inf", "data.weights-sum-overflow"])
@pytest.mark.filterwarnings("error")
def test_bad_config_values_exit_2_naming_the_key(ws, tmp_path, capsys,
                                                 command, extra, key):
    cfg2 = tmp_path / "bad.cfg"
    cfg2.write_text(overridden(SMALL_CFG, extra))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg2), "--data", data_of(ws),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("command,key,csv", [
    ("bench", "bench.methods", "bench.csv"),
    ("bench", "bench.nfes", "bench.csv"),
    ("sweep-r", "sweep.r_values", "sweep.csv"),
], ids=["bench.methods", "bench.nfes", "sweep.r_values"])
def test_empty_list_exits_2_writing_no_csv(ws, tmp_path, capsys, monkeypatch,
                                           command, key, csv):
    def unpaid(*args):
        raise AssertionError("bench assets computed for an empty list")

    monkeypatch.setattr(cli, "build_teacher", unpaid)
    monkeypatch.setattr(cli, "bench_eval_assets", unpaid)
    cfg2 = tmp_path / "empty.cfg"
    cfg2.write_text(overridden(SMALL_CFG, f"{key} =\n"))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg2), "--data", data_of(ws),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (out / csv).exists()


def test_unknown_bench_method_exits_2_before_any_work(ws, tmp_path, capsys,
                                                      monkeypatch):
    def unpaid(*args):
        raise AssertionError("bench work started for an unknown method")

    for name in ("load_dataset", "build_teacher", "bench_eval_assets"):
        monkeypatch.setattr(cli, name, unpaid)
    cfg2 = tmp_path / "unknown.cfg"
    cfg2.write_text(overridden(SMALL_CFG, "bench.methods = logsnr,foo\n"))
    out = tmp_path / "o"
    assert main(["bench", "--config", str(cfg2), "--data", data_of(ws),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bench.methods" in err
    assert not (out / "bench.csv").exists()


@pytest.mark.parametrize("argv,extra", [
    (["--seed", "-1"], ""),
    (["--seed", str(2 ** 64)], ""),
    ([], "seed = -5\n"),
], ids=["flag-negative", "flag-past-u64", "config-negative"])
def test_seed_outside_u64_exits_2_writing_nothing(tmp_path, capsys, argv,
                                                  extra):
    cfg2 = tmp_path / "seed.cfg"
    cfg2.write_text(overridden(SMALL_CFG, extra))
    out = tmp_path / "d.bin"
    assert main(["gen-data", "--config", str(cfg2), "--out", str(out)]
                + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert not out.exists()


def test_train_aborted_before_first_checkpoint_exits_1(ws, tmp_path, capsys):
    cfg2 = tmp_path / "blowup.cfg"
    cfg2.write_text(SMALL_CFG + "train.lr_xi = 1e4\n")
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg2), "--data", data_of(ws),
                 "--out", str(run)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (run / "checkpoint.json").exists()
    assert (run / "metrics.csv").exists() and (run / "config.txt").exists()


@pytest.mark.parametrize("command", ["train", "sweep-r"])
@pytest.mark.parametrize("field,says", [
    ("lr_xic", "t=nan"),
    ("lr_xprime", "non-finite adjoint"),
], ids=["lr_xic-inf", "lr_xprime-inf"])
def test_errors_raised_inside_training_exit_2(ws, tmp_path, capsys,
                                              monkeypatch, command, field,
                                              says):
    """A schedule-domain or engine error from inside the training loop ends
    in an error line, not a traceback, and leaves no --out directory.  The
    config refuses an infinite learning rate, so train() gets one past that
    check."""
    built = cli.build_train_config
    monkeypatch.setattr(cli, "build_train_config",
                        lambda cfg: replace(built(cfg), **{field: np.inf}))
    cfg2 = tmp_path / "blowup.cfg"
    cfg2.write_text(SMALL_CFG)
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg2), "--data", data_of(ws),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not (tmp_path / "o").exists()


def test_sweep_r_refuses_an_aborted_training(ws, tmp_path, capsys):
    cfg2 = tmp_path / "blowup.cfg"
    cfg2.write_text(SMALL_CFG + "train.lr_xi = 1e4\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main(["sweep-r", "--config", str(cfg2), "--data",
                     data_of(ws), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "r = 0.0" in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command,jobs,says,csv", [
    ("cross-eval", 1, "euler1", "cross.csv"),
    ("bench", 1, "dpmpp2 at NFE 3", "bench.csv"),
    ("bench", 2, "dpmpp2 at NFE 3", "bench.csv"),
], ids=["cross-eval", "bench", "bench-jobs2"])
def test_aborted_training_is_refused(ws, tmp_path, capsys, command, jobs,
                                     says, csv):
    """A training that aborts before its first checkpoint leaves only the
    unvalidated init grid; cross-eval and bench's learned cell refuse it
    instead of reporting that grid as learned."""
    cfg2 = tmp_path / "blowup.cfg"
    cfg2.write_text(SMALL_CFG + "train.lr_xi = 1e4\n")
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(cfg2), "--data", data_of(ws),
                     "--out", str(out), "--jobs", str(jobs)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and says in err
    assert not (out / csv).exists()


def test_one_parser_serves_every_call():
    assert cli._parser() is cli._parser()
    first = cli._parser().parse_args(["train", "--seed", "3", "--jobs", "2"])
    again = cli._parser().parse_args(["sample"])
    assert (first.seed, first.jobs) == (3, 2)
    assert (again.command, again.seed, again.jobs) == ("sample", None, 1)
