"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main so exit codes, manifests and
outputs can be asserted cheaply. The shared fixture trains a one-epoch
micro model on a tiny synthetic grid and reuses it everywhere.
"""

import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from pngcheck import read_png

from rangeseg import cli
from rangeseg.checkpoint import load_checkpoint, save_checkpoint
from rangeseg.cli import _proj_from_args, build_parser, main
from rangeseg.imageio import label_palette, normalize_to_u8
from rangeseg.pointcloud import (
    ClassMap,
    default_scene_spec,
    generate_synthetic_scene,
    write_kitti_labels,
    write_kitti_scan,
)
from rangeseg.projection import ProjectionConfig
from rangeseg.uncertainty import adf_infer

W, H = 64, 32


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    gt_dir = root / "gt"
    gt_dir.mkdir()
    scans, scan_paths = [], []
    for i in range(2):
        spec = default_scene_spec(7 + i, num_classes=4, rows=H, cols=W)
        scan = generate_synthetic_scene(seed=501 + i, spec=spec)
        p = root / f"scan{i:03d}.bin"
        p.write_bytes(write_kitti_scan(scan))
        (gt_dir / f"scan{i:03d}.label").write_bytes(write_kitti_labels(scan.labels))
        scans.append(scan)
        scan_paths.append(str(p))
    out = root / "train"
    rc = main([
        "train", "--synthetic", "--num-scans", "2", "--classes", "4",
        "--epochs", "1", "--width", str(W), "--height", str(H),
        "--seed", "0", "--no-augment", "--out-dir", str(out),
    ])
    assert rc == 0
    return SimpleNamespace(
        root=root, scans=scans, scan_paths=scan_paths, gt_dir=gt_dir,
        train_dir=out, ckpt=str(out / "checkpoint.rseg"),
    )


def manifest_of(out_dir):
    with open(os.path.join(str(out_dir), "manifest.json")) as fh:
        return json.load(fh)


def no_tmp_leftovers(out_dir):
    return not [n for n in os.listdir(str(out_dir)) if n.endswith(".tmp")]


# ---------------------------------------------------------------- parser


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "rangeseg" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_default_projection_is_projection_config():
    # no flags and no checkpoint extras: exactly the library's defaults,
    # not a degrees round trip of them
    args = build_parser().parse_args(["project", "--scan", "scan.bin", "--out-dir", "out"])
    assert _proj_from_args(args) == ProjectionConfig()


def test_projection_flags_in_degrees_extras_in_radians():
    extras = {"proj.w": 512, "proj.h": 32, "proj.fov_up": repr(0.1), "proj.fov_down": repr(-0.2)}
    args = build_parser().parse_args(["project", "--scan", "scan.bin", "--out-dir", "out"])
    assert _proj_from_args(args, extras) == ProjectionConfig(w=512, h=32, fov_up=0.1, fov_down=-0.2)
    args = build_parser().parse_args(
        ["project", "--scan", "scan.bin", "--out-dir", "out", "--fov-up", "2", "--fov-down", "-10"])
    proj = _proj_from_args(args, extras)
    assert (proj.w, proj.h) == (512, 32)
    assert proj.fov_up == math.radians(2.0) and proj.fov_down == math.radians(-10.0)


# ---------------------------------------------------------------- train


def test_train_writes_checkpoint_and_manifest(ws):
    assert os.path.isfile(ws.ckpt)
    m = manifest_of(ws.train_dir)
    assert m["command"] == "train"
    assert m["epochs"] == 1
    assert set(m["versions"]) == {"rangeseg", "numpy", "python"}
    assert 0.0 <= m["final_train_miou_pointwise"] <= 1.0
    assert len(m["per_class_iou"]) == 4
    assert "train" in m["timings_ms"]
    assert no_tmp_leftovers(ws.train_dir)
    log = os.path.join(str(ws.train_dir), "metrics.jsonl")
    lines = [json.loads(l) for l in open(log)]
    assert len(lines) == 1 and "loss_total" in lines[0]


def test_train_missing_data_dir_exits_two(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope"), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_train_class_count_mismatch_exits_two(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("num_classes=3\n")
    rc = main([
        "train", "--synthetic", "--num-scans", "1", "--classes", "4",
        "--model-config", str(cfg), "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 2


def test_train_model_config_out_of_range_exits_one(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("num_classes=4\nbase_channels=8\nencoder_channels=8,16,32\n"
                   "num_pool_stages=2\nleaky_slope=2.0\n")
    rc = main([
        "train", "--synthetic", "--num-scans", "1", "--classes", "4", "--epochs", "1",
        "--width", str(W), "--height", str(H), "--model-config", str(cfg),
        "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "leaky_slope" in err
    assert "Traceback" not in err


def test_train_config_file_controls_epochs(ws, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\nbatch_size=2\nseed=5\naugment=false\n")
    out = tmp_path / "o"
    rc = main([
        "train", "--synthetic", "--num-scans", "2", "--classes", "4",
        "--width", str(W), "--height", str(H), "--seed", "5",
        "--train-config", str(cfg), "--out-dir", str(out),
    ])
    assert rc == 0
    assert manifest_of(out)["epochs"] == 2


def test_train_config_without_seed_takes_seed_flag(tmp_path):
    # a config file that sets no seed must make the same run as --epochs with
    # the same --seed: one seed for weights, scenes, shuffling and augmentation
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nbatch_size=4\n")
    common = ["train", "--synthetic", "--num-scans", "2", "--classes", "4",
              "--width", str(W), "--height", str(H), "--seed", "5"]
    assert main([*common, "--train-config", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*common, "--epochs", "1", "--out-dir", str(tmp_path / "b")]) == 0

    def losses(out):
        lines = [json.loads(l) for l in open(out / "metrics.jsonl")]
        return [{k: v for k, v in l.items() if k.startswith("loss")} for l in lines]

    assert losses(tmp_path / "a") == losses(tmp_path / "b")
    assert losses(tmp_path / "a")[0]


def test_train_config_file_with_nan_lr0_exits_one_before_training(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nlr0=nan\n")
    out = tmp_path / "o"
    rc = main(["train", "--synthetic", "--num-scans", "1", "--width", str(W), "--height", str(H),
               "--train-config", str(cfg), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "lr0" in err and "Traceback" not in err
    assert not out.exists()  # refused before the output directory or any scan is made


@pytest.mark.parametrize("flag", [["--epochs", "3"], ["--no-augment"]], ids=["epochs", "no-augment"])
def test_train_config_file_rejects_flags_it_overrides(tmp_path, capsys, flag):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=2\n")
    out = tmp_path / "o"
    rc = main([
        "train", "--synthetic", "--num-scans", "1", "--train-config", str(cfg),
        "--out-dir", str(out), *flag,
    ])
    assert rc == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


def test_train_epochs_default_to_30(tmp_path, monkeypatch):
    seen = []

    def fake_train(model, scans, proj, cfg, log_path=None):
        seen.append(cfg)
        return SimpleNamespace(history=[], final_lr=cfg.lr0)

    monkeypatch.setattr(cli, "train", fake_train)
    rc = main([
        "train", "--synthetic", "--num-scans", "1", "--classes", "4",
        "--width", str(W), "--height", str(H), "--out-dir", str(tmp_path / "o"),
    ])
    assert rc == 0
    assert seen[0].epochs == 30 and seen[0].augment


def test_train_same_seed_reproduces_checkpoint(tmp_path):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "train", "--synthetic", "--num-scans", "1", "--classes", "4",
            "--epochs", "1", "--width", str(W), "--height", str(H),
            "--seed", "3", "--no-augment", "--out-dir", str(out),
        ])
        assert rc == 0
        blobs.append((out / "checkpoint.rseg").read_bytes())
    assert blobs[0] == blobs[1]


def write_dataset(root, scans, class_map=None):
    """A KITTI-format directory: NNNNNN.bin scans beside their .label files."""
    root.mkdir()
    for i, scan in enumerate(scans):
        (root / f"{i:06d}.bin").write_bytes(write_kitti_scan(scan))
        (root / f"{i:06d}.label").write_bytes(write_kitti_labels(scan.labels, class_map))
    return str(root)


def test_train_data_dir_with_and_without_classmap(ws, tmp_path):
    # raw ids 10..40 through a class map must train exactly as the training ids 0..3 do
    (tmp_path / "map.classmap").write_text("10 0 ground\n20 1 box\n30 2 pole\n40 3 wall\n")
    class_map = ClassMap.load(tmp_path / "map.classmap")
    common = ["train", "--epochs", "1", "--width", str(W), "--height", str(H)]
    plain = write_dataset(tmp_path / "plain", ws.scans)
    raw = write_dataset(tmp_path / "raw", ws.scans, class_map)
    assert main([*common, "--data", plain, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*common, "--data", raw, "--classmap", str(tmp_path / "map.classmap"),
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert len(manifest_of(tmp_path / "b")["per_class_iou"]) == 4
    blobs = [(tmp_path / d / "checkpoint.rseg").read_bytes() for d in "ab"]
    assert blobs[0] == blobs[1]


def test_train_classes_differing_from_classmap_exits_two(ws, tmp_path, capsys):
    (tmp_path / "map.classmap").write_text("10 0 ground\n20 1 box\n30 2 pole\n40 3 wall\n")
    raw = write_dataset(tmp_path / "raw", ws.scans, ClassMap.load(tmp_path / "map.classmap"))
    rc = main(["train", "--epochs", "1", "--width", str(W), "--height", str(H), "--data", raw,
               "--classmap", str(tmp_path / "map.classmap"), "--classes", "7",
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "--classes 7 differs from the class map's 4" in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.rseg").exists()


def test_train_data_dir_without_scans_exits_two(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    rc = main(["train", "--data", str(tmp_path / "empty"), "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "no .bin scans" in capsys.readouterr().err


def test_train_classmap_without_data_exits_two_before_any_work(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["train", "--synthetic", "--classmap", "any.classmap", "--out-dir", str(out)])
    assert rc == 2
    assert "--classmap" in capsys.readouterr().err
    assert not out.exists()


def test_train_data_dir_without_classmap_sized_by_classes(ws, tmp_path, capsys):
    # raw ids 10..40 are not training ids: --classes 4 sizes the head, and they fall outside it
    class_map = ClassMap.from_text("10 0 ground\n20 1 box\n30 2 pole\n40 3 wall\n")
    raw = write_dataset(tmp_path / "raw", ws.scans, class_map)
    common = ["train", "--epochs", "1", "--width", str(W), "--height", str(H), "--data"]
    assert main([*common, raw, "--classes", "4", "--out-dir", str(tmp_path / "o")]) == 2
    assert os.path.join(raw, "000000.label") in capsys.readouterr().err
    assert not (tmp_path / "o" / "checkpoint.rseg").exists()
    plain = write_dataset(tmp_path / "plain", ws.scans)
    assert main([*common, plain, "--classes", "5", "--out-dir", str(tmp_path / "five")]) == 0
    assert len(manifest_of(tmp_path / "five")["per_class_iou"]) == 5


def test_train_data_dir_rejects_num_scans_and_class_count_mismatch(ws, tmp_path, capsys):
    plain = write_dataset(tmp_path / "plain", ws.scans)
    cfg = tmp_path / "model.cfg"
    cfg.write_text("num_classes=3\n")
    common = ["train", "--epochs", "1", "--width", str(W), "--height", str(H), "--data", plain]
    assert main([*common, "--num-scans", "3", "--out-dir", str(tmp_path / "a")]) == 2
    assert "--num-scans" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()
    assert main([*common, "--model-config", str(cfg), "--out-dir", str(tmp_path / "b")]) == 2
    assert "3 classes" in capsys.readouterr().err


def test_config_parse_error_exits_one_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("num_classes 4\n")
    rc = main(["train", "--synthetic", "--num-scans", "1", "--model-config", str(cfg),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert f"error: ConfigError: {cfg}: line 1: expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("command, error", [("train", "ConfigError"), ("eval", "ClassMapError")])
def test_non_utf8_text_input_exits_one_naming_the_file(ws, tmp_path, capsys, command, error):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"num_classes=4\n\xff\xfe\n")
    if command == "train":
        argv = ["train", "--synthetic", "--num-scans", "1", "--model-config", str(bad),
                "--out-dir", str(tmp_path / "o")]
    else:
        argv = ["eval", "--pred", str(ws.gt_dir), "--gt", str(ws.gt_dir), "--classmap", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert error in err and str(bad) in err and "Traceback" not in err


# ---------------------------------------------------------------- infer


def test_infer_writes_labels_and_timings(ws, tmp_path):
    out = tmp_path / "pred"
    rc = main(["infer", *ws.scan_paths, "--checkpoint", ws.ckpt,
               "--out-dir", str(out), "--png"])
    assert rc == 0
    m = manifest_of(out)
    assert set(m["timings_ms"]) == {"projection", "network", "knn", "total"}
    assert len(m["per_scan"]) == 2
    for scan, path in zip(ws.scans, ws.scan_paths):
        stem = os.path.splitext(os.path.basename(path))[0]
        lab = np.frombuffer((out / f"{stem}.label").read_bytes(), dtype="<u4")
        assert len(lab) == len(scan)
        assert (lab & 0xFFFF).max() < 4
        assert (out / f"{stem}.png").is_file()
    assert no_tmp_leftovers(out)


def test_infer_is_deterministic(ws, tmp_path):
    outs = []
    for name in ("p1", "p2"):
        out = tmp_path / name
        assert main(["infer", ws.scan_paths[0], "--checkpoint", ws.ckpt,
                     "--out-dir", str(out)]) == 0
        outs.append((out / "scan000.label").read_bytes())
    assert outs[0] == outs[1]


def test_infer_no_knn_still_produces_labels(ws, tmp_path):
    out = tmp_path / "pred"
    rc = main(["infer", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--no-knn", "--out-dir", str(out)])
    assert rc == 0
    lab = np.frombuffer((out / "scan000.label").read_bytes(), dtype="<u4")
    assert len(lab) == len(ws.scans[0])


def test_infer_without_scans_exits_two(ws, tmp_path):
    assert main(["infer", "--checkpoint", ws.ckpt, "--out-dir", str(tmp_path)]) == 2


def test_infer_classmap_class_count_mismatch_exits_two(ws, tmp_path, capsys):
    cmap = tmp_path / "two.classmap"
    cmap.write_text("10 0 car\n40 1 road\n")  # the checkpoint has 4 classes
    out = tmp_path / "pred"
    rc = main(["infer", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--classmap", str(cmap), "--out-dir", str(out)])
    assert rc == 2
    assert "class map has 2 classes" in capsys.readouterr().err
    assert not (out / "scan000.label").exists()


def test_infer_missing_checkpoint_exits_two(ws, tmp_path):
    rc = main(["infer", ws.scan_paths[0], "--checkpoint", str(tmp_path / "no.rseg"),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["infer", "uncertainty"])
def test_unparsable_projection_extra_exits_one_naming_the_key(ws, tmp_path, capsys, command):
    model, _, extras = load_checkpoint(ws.ckpt)
    ckpt = tmp_path / "bad.rseg"
    save_checkpoint(model, {**extras, "proj.w": "wide"}, path=str(ckpt))
    out = tmp_path / "o"
    rc = main([command, ws.scan_paths[0], "--checkpoint", str(ckpt), "--out-dir", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "CorruptCheckpointError" in err and "proj.w" in err and "Traceback" not in err
    assert not out.exists() or not os.listdir(str(out))


# ---------------------------------------------------------------- eval


@pytest.fixture(scope="module")
def pred_dir(ws, tmp_path_factory):
    out = tmp_path_factory.mktemp("pred")
    rc = main(["infer", *ws.scan_paths, "--checkpoint", ws.ckpt, "--out-dir", str(out)])
    assert rc == 0
    return out


def test_eval_reports_miou(ws, pred_dir, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--pred", str(pred_dir), "--gt", str(ws.gt_dir),
               "--classes", "4", "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["miou"] <= 1.0
    assert report["points"] == sum(len(s) for s in ws.scans)
    assert np.array(report["confusion"]).shape == (4, 4)


def test_eval_stem_mismatch_exits_two(ws, pred_dir, tmp_path):
    lonely = tmp_path / "only.label"
    lonely.write_bytes(b"\x00" * 4)
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(lonely), "--classes", "4"]) == 2


def test_eval_without_class_count_exits_two(ws, pred_dir):
    assert main(["eval", "--pred", str(pred_dir), "--gt", str(ws.gt_dir)]) == 2


def test_eval_length_mismatch_exits_two(ws, pred_dir, tmp_path):
    bad_gt = tmp_path / "gt"
    bad_gt.mkdir()
    for name in os.listdir(str(ws.gt_dir)):
        (bad_gt / name).write_bytes(b"\x00" * 8)
    rc = main(["eval", "--pred", str(pred_dir), "--gt", str(bad_gt), "--classes", "4"])
    assert rc == 2


def test_eval_truncated_label_file_exits_one(ws, tmp_path, capsys):
    bad_pred = tmp_path / "pred"
    bad_pred.mkdir()
    for name in os.listdir(str(ws.gt_dir)):
        (bad_pred / name).write_bytes(b"\x00" * 5)
    rc = main(["eval", "--pred", str(bad_pred), "--gt", str(ws.gt_dir), "--classes", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ScanFormatError" in err
    assert str(bad_pred / "scan000.label") in err


# ---------------------------------------------------------------- uncertainty


def test_uncertainty_writes_both_maps(ws, tmp_path):
    out = tmp_path / "unc"
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "3", "--noise-var", "1e-3", "--out-dir", str(out)])
    assert rc == 0
    epi = np.load(out / "scan000_epistemic.npy")
    ale = np.load(out / "scan000_aleatoric.npy")
    assert epi.shape == (H, W) and ale.shape == (H, W)
    assert (epi >= 0).all() and (ale > 0).all()
    for suffix in ("epistemic.png", "aleatoric.png"):
        assert (out / f"scan000_{suffix}").is_file()
    m = manifest_of(out)
    assert m["mc_trials"] == 3
    assert set(m["timings_ms"]) == {"projection", "adf", "mc", "total"}
    assert min(m["timings_ms"].values()) > 0


def test_uncertainty_single_trial_gives_zero_epistemic(ws, tmp_path):
    out = tmp_path / "unc"
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "1", "--out-dir", str(out)])
    assert rc == 0
    assert not np.load(out / "scan000_epistemic.npy").any()


def test_uncertainty_zero_trials_exits_two(ws, tmp_path):
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "0", "--out-dir", str(tmp_path)])
    assert rc == 2


def test_uncertainty_grid_search_selects_rate(ws, tmp_path, capsys):
    out = tmp_path / "unc"
    gt = str(ws.gt_dir / "scan000.label")
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "2", "--rates", "0.05,0.3",
               "--gt", gt, "--out-dir", str(out)])
    assert rc == 0
    assert "selected_rate=" in capsys.readouterr().out
    m = manifest_of(out)
    assert m["selected_rate"] in (0.05, 0.3)
    assert set(m["objectives"]) == {"0.05", "0.3"}
    timings = m["timings_ms"]
    assert set(timings) == {"projection", "adf", "mc", "search", "total"}
    assert timings["search"] > 0
    assert sum(v for k, v in timings.items() if k != "total") == pytest.approx(timings["total"], abs=0.01)


@pytest.mark.parametrize("rates, with_gt", [
    ("abc", True), ("0.1,1.5", True), ("0.1,,0.3", True), ("nan", True), ("0.1,0.3", False),
], ids=["not-a-number", "out-of-range", "empty-entry", "nan", "without-gt"])
def test_uncertainty_bad_rates_exit_two_before_any_work(ws, tmp_path, capsys, rates, with_gt):
    out = tmp_path / "unc"
    gt = ["--gt", str(ws.gt_dir / "scan000.label")] if with_gt else []
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "2", "--rates", rates, *gt, "--out-dir", str(out)])
    assert rc == 2
    assert "--rates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1.0", "1.5", "-0.5", "nan"])
def test_uncertainty_bad_rate_exits_two_before_any_work(ws, tmp_path, capsys, monkeypatch, rate):
    def no_load(*_):
        raise AssertionError("checkpoint loaded")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    out = tmp_path / "unc"
    rc = main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
               "--mc-trials", "2", "--rate", rate, "--out-dir", str(out)])
    assert rc == 2
    assert "--rate" in capsys.readouterr().err
    assert not out.exists()


def test_uncertainty_gt_count_mismatch_exits_two(ws, tmp_path):
    gt = str(ws.gt_dir / "scan000.label")
    rc = main(["uncertainty", *ws.scan_paths, "--checkpoint", ws.ckpt,
               "--gt", gt, "--out-dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("noise", [["--noise-var", "1e-3"], []], ids=["noise-var", "no-noise"])
def test_uncertainty_gt_runs_one_adf_pass_per_scan(ws, tmp_path, monkeypatch, noise):
    # the rate search reuses the per-scan ADF map; without a noise flag it is
    # the zero-noise pass, and no aleatoric file is written
    seen = []

    def counting_adf(model, x, noise_model, valid=None):
        seen.append(noise_model.variances.copy())
        return adf_infer(model, x, noise_model, valid)

    monkeypatch.setattr(cli, "adf_infer", counting_adf)
    out = tmp_path / "unc"
    gts = [str(ws.gt_dir / f"scan{i:03d}.label") for i in range(2)]
    rc = main(["uncertainty", *ws.scan_paths, "--checkpoint", ws.ckpt, "--mc-trials", "2",
               *noise, "--rates", "0.05,0.3", "--gt", *gts, "--out-dir", str(out)])
    assert rc == 0
    assert len(seen) == len(ws.scan_paths)
    expected = float(noise[1]) if noise else 0.0
    assert all((v == expected).all() for v in seen)
    assert (out / "scan000_aleatoric.npy").is_file() == bool(noise)
    assert set(manifest_of(out)["objectives"]) == {"0.05", "0.3"}


def test_uncertainty_gt_runs_each_prefix_once(ws, tmp_path, monkeypatch):
    # the MC pass at --rate and the rate search share one held prefix per scan
    convs = []
    load = cli.load_checkpoint

    def counting_load(path):
        loaded = load(path)
        conv = loaded[0].context[0].short.conv
        forward = conv.forward
        conv.forward = lambda x, cache=False: convs.append(len(x)) or forward(x, cache=cache)
        return loaded

    monkeypatch.setattr(cli, "load_checkpoint", counting_load)
    gts = [str(ws.gt_dir / f"scan{i:03d}.label") for i in range(2)]
    rc = main(["uncertainty", *ws.scan_paths, "--checkpoint", ws.ckpt, "--mc-trials", "2",
               "--rates", "0.1,0.3", "--gt", *gts, "--out-dir", str(tmp_path / "unc")])
    assert rc == 0
    assert convs == [1] * len(ws.scan_paths)


def test_uncertainty_gt_class_id_out_of_range_exits_two_before_mc(ws, tmp_path, capsys, monkeypatch):
    def no_mc(*_, **__):
        raise AssertionError("MC pass ran")

    monkeypatch.setattr(cli, "mc_dropout_infer", no_mc)
    bad = tmp_path / "bad.label"
    bad.write_bytes(write_kitti_labels(np.full(len(ws.scans[1]), 7)))
    rc = main(["uncertainty", *ws.scan_paths, "--checkpoint", ws.ckpt, "--mc-trials", "2",
               "--gt", str(ws.gt_dir / "scan000.label"), str(bad), "--out-dir", str(tmp_path / "unc")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "7" in err


def test_uncertainty_noise_var_and_noise_config_exclusive(ws, tmp_path, capsys):
    (tmp_path / "noise.cfg").write_text("x=1\ny=1\nz=1\nintensity=1\nrange=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt, "--noise-var", "1e-3",
              "--noise-config", str(tmp_path / "noise.cfg"), "--out-dir", str(tmp_path / "unc")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "unc").exists()


def test_uncertainty_noise_config_matches_equal_noise_var(ws, tmp_path):
    (tmp_path / "noise.cfg").write_text("x=1e-3\ny=1e-3\nz=1e-3\nintensity=1e-3\nrange=1e-3\n")
    common = ["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt, "--mc-trials", "1"]
    assert main([*common, "--noise-config", str(tmp_path / "noise.cfg"), "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*common, "--noise-var", "1e-3", "--out-dir", str(tmp_path / "b")]) == 0
    a, b = (np.load(tmp_path / d / "scan000_aleatoric.npy") for d in "ab")
    assert (a > 0).all()
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- project


def test_nan_fov_exits_one_naming_projection_error(ws, tmp_path, capsys):
    out = tmp_path / "proj"
    rc = main(["project", "--scan", ws.scan_paths[0], "--out-dir", str(out), "--fov-up", "nan"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ProjectionError" in err and "Traceback" not in err


def test_project_reports_collision_arithmetic(ws, tmp_path, capsys):
    out = tmp_path / "proj"
    rc = main(["project", "--scan", ws.scan_paths[0], "--out-dir", str(out),
               "--width", str(W), "--height", str(H)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["points"] == len(ws.scans[0])
    assert report["mapped_points"] <= report["points"]
    assert report["collisions"] == report["mapped_points"] - report["valid_pixels"]
    assert report["collisions"] >= 0
    for name in ("x", "y", "z", "intensity", "range", "valid"):
        assert (out / f"{name}.png").is_file()
    assert set(manifest_of(out)["timings_ms"]) == {"projection", "total"}


def test_project_missing_scan_exits_two(tmp_path):
    rc = main(["project", "--scan", str(tmp_path / "no.bin"), "--out-dir", str(tmp_path)])
    assert rc == 2


def test_project_truncated_scan_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 5)
    rc = main(["project", "--scan", str(bad), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ScanFormatError" in err and str(bad) in err


# ---------------------------------------------------------------- png output


def test_png_outputs_decode(ws, tmp_path):
    """Every .png the CLI writes is a valid PNG holding the map it names."""
    pred, unc, proj = tmp_path / "pred", tmp_path / "unc", tmp_path / "proj"
    assert main(["infer", ws.scan_paths[0], "--checkpoint", ws.ckpt,
                 "--out-dir", str(pred), "--png"]) == 0
    assert main(["uncertainty", ws.scan_paths[0], "--checkpoint", ws.ckpt,
                 "--mc-trials", "2", "--noise-var", "1e-3", "--out-dir", str(unc)]) == 0
    assert main(["project", "--scan", ws.scan_paths[0], "--out-dir", str(proj),
                 "--width", str(W), "--height", str(H)]) == 0

    header, rgb = read_png(pred / "scan000.png")
    assert (header["height"], header["width"], header["color_type"]) == (H, W, 2)
    palette = label_palette(4)
    assert (rgb[:, :, None, :] == palette[None, None]).all(axis=-1).any(axis=-1).all()

    for kind in ("epistemic", "aleatoric"):
        header, gray = read_png(unc / f"scan000_{kind}.png")
        assert header["color_type"] == 0
        np.testing.assert_array_equal(gray, normalize_to_u8(np.load(unc / f"scan000_{kind}.npy")))

    for name in ("x", "y", "z", "intensity", "range", "valid"):
        header, gray = read_png(proj / f"{name}.png")
        assert (header["height"], header["width"], header["color_type"]) == (H, W, 0)
    assert set(np.unique(gray)) <= {0, 255}
