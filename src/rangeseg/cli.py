"""Command-line surface: train, infer, eval, uncertainty, project.

Exit codes: 0 success, 2 usage or input-path problems, 1 runtime failure.
Each run drops a manifest.json recording arguments, outputs, and a
projection/network/kNN timing breakdown. Every file a command writes is
written atomically (fileio.write_atomic).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (
    load_kv_file,
    model_config_from_dict,
    train_config_from_dict,
)
from .errors import ConfigError, CorruptCheckpointError, InvalidPointError, RangesegError, ScanFormatError
from .fileio import write_atomic
from .imageio import save_grayscale, save_labels
from .layers import check_rate
from .metrics import ConfusionMatrix
from .model import HeldPrefix, build_model, micro_config
from .pointcloud import (
    ClassMap,
    decode_kitti_labels,
    default_scene_spec,
    generate_synthetic_scene,
    read_kitti_labels,
    read_kitti_scan,
    write_kitti_labels,
)
from .postproc import KnnConfig, knn_filter
from .projection import CHANNELS, ProjectionConfig, back_project, build_range_image
from .train import TrainConfig, evaluate_pointwise, train
from .uncertainty import (
    SensorNoiseModel,
    adf_infer,
    default_rate_grid,
    grid_search_dropout_rate,
    mc_dropout_infer,
)


class UsageError(Exception):
    """Bad arguments, missing files, unreadable configs: exit code 2."""


# ---------------------------------------------------------------- helpers


def _require_file(path, what="file"):
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload):
    write_atomic(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _write_npy(path, arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    write_atomic(path, buf.getvalue())


def _manifest(command, args_dict, timings_ms, extra=None):
    payload = {
        "command": command,
        "args": {k: v for k, v in args_dict.items() if not callable(v)},
        "timings_ms": {k: round(v, 3) for k, v in timings_ms.items()},
        "versions": {
            "rangeseg": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    payload.update(extra or {})
    return payload


def _proj_from_args(args, extras=None):
    """Projection: CLI flags (degrees) override checkpoint extras (radians) override defaults."""
    extras, d = extras or {}, ProjectionConfig()

    def extra(key, kind, default):
        try:
            return kind(extras.get(key, default))
        except ValueError:
            raise CorruptCheckpointError(f"checkpoint extra {key}={extras[key]!r} is not {kind.__name__}") from None

    w = args.width if args.width is not None else extra("proj.w", int, d.w)
    h = args.height if args.height is not None else extra("proj.h", int, d.h)
    up = math.radians(args.fov_up) if args.fov_up is not None else extra("proj.fov_up", float, d.fov_up)
    down = math.radians(args.fov_down) if args.fov_down is not None else extra("proj.fov_down", float, d.fov_down)
    return ProjectionConfig(w=w, h=h, fov_up=up, fov_down=down)


def _proj_flags(p):
    p.add_argument("--width", type=int, default=None, help="range image width")
    p.add_argument("--height", type=int, default=None, help="range image height")
    p.add_argument("--fov-up", type=float, default=None, help="upper vertical FoV, degrees")
    p.add_argument("--fov-down", type=float, default=None, help="lower vertical FoV, degrees (negative)")


def _knn_flags(p):
    p.add_argument("--knn-window", type=int, default=5)
    p.add_argument("--knn-k", type=int, default=5)
    p.add_argument("--knn-cutoff", type=float, default=1.0)
    p.add_argument("--knn-weights", choices=("uniform", "inverse-range-gap"), default="inverse-range-gap")
    p.add_argument("--no-knn", action="store_true", help="skip the kNN cleanup")


def _knn_from_args(args):
    return KnnConfig(
        window=args.knn_window, k=args.knn_k, cutoff=args.knn_cutoff, weighting=args.knn_weights
    )


def _expand_label_sources(paths, what):
    """Accept files and/or directories; directories contribute their members."""
    out = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(
                os.path.join(p, name) for name in sorted(os.listdir(p)) if name.endswith(".label")
            )
        else:
            out.append(_require_file(p, what))
    if not out:
        raise UsageError(f"no {what}s given")
    return out


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _decode_file(path, what, decode, *args):
    """decode(bytes of path, *args); a format error names the file it came from."""
    with open(_require_file(path, what), "rb") as fh:
        try:
            return decode(fh.read(), *args)
        except (ScanFormatError, InvalidPointError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _check_class_ids(labels, num_classes, path):
    """A class id outside [0, num_classes) is a usage error naming its file."""
    bad = (labels < 0) | (labels >= num_classes)
    if bad.any():
        raise UsageError(f"{path}: class id {labels[bad][0]} outside [0, {num_classes})")


def _load_scan(path):
    return _decode_file(path, "scan", read_kitti_scan)


def _load_synthetic_dataset(args, proj, num_classes):
    scans = []
    for i in range(20 if args.num_scans is None else args.num_scans):
        spec = default_scene_spec(args.seed + i, num_classes=num_classes, rows=proj.h, cols=proj.w)
        scans.append(generate_synthetic_scene(seed=10_000 + args.seed + i, spec=spec))
    return scans


def _load_dir_dataset(data_dir, class_map, num_classes):
    bins = sorted(f for f in os.listdir(data_dir) if f.endswith(".bin"))
    if not bins:
        raise UsageError(f"no .bin scans under {data_dir}")
    scans = []
    for name in bins:
        scan = _load_scan(os.path.join(data_dir, name))
        label_path = os.path.join(data_dir, _stem(name) + ".label")
        scans.append(_decode_file(label_path, "label file", read_kitti_labels, scan, class_map))
        _check_class_ids(scans[-1].labels, num_classes, label_path)
    return scans


# ---------------------------------------------------------------- commands


def cmd_train(args):
    if args.train_config:
        for flag, given in (("--epochs", args.epochs is not None), ("--no-augment", args.no_augment)):
            if given:
                raise UsageError(f"{flag} cannot be combined with --train-config; set it in the config file")
    if args.classmap and not args.data:
        raise UsageError("--classmap needs --data; synthetic scenes carry training ids")
    if args.num_scans is not None and args.data:
        raise UsageError("--num-scans sizes a synthetic dataset; --data trains on every scan it holds")
    if args.train_config:
        kv = load_kv_file(_require_file(args.train_config, "train config"))
        kv.setdefault("seed", str(args.seed))
        train_cfg = train_config_from_dict(kv)
    else:
        epochs = 30 if args.epochs is None else args.epochs
        train_cfg = TrainConfig(epochs=epochs, batch_size=4, seed=args.seed, augment=not args.no_augment)
    # synthetic scenes are ray-cast on the projection grid, 64x512 unless the flags say otherwise
    proj = _proj_from_args(args, None if args.data else {"proj.w": 512, "proj.h": 64})
    out_dir = _ensure_dir(args.out_dir)
    class_map = None
    num_classes = 4 if args.classes is None else args.classes
    if args.data:
        if not os.path.isdir(args.data):
            raise UsageError(f"dataset directory not found: {args.data}")
        if args.classmap:
            class_map = ClassMap.load(_require_file(args.classmap, "class map"))
            if args.classes is not None and args.classes != class_map.num_classes:
                raise UsageError(f"--classes {args.classes} differs from the class map's {class_map.num_classes}")
            num_classes = class_map.num_classes
        scans = _load_dir_dataset(args.data, class_map, num_classes)
    else:
        scans = _load_synthetic_dataset(args, proj, num_classes)

    if args.model_config:
        model_cfg = model_config_from_dict(load_kv_file(_require_file(args.model_config, "model config")))
    else:
        model_cfg = micro_config(num_classes=num_classes)
    if model_cfg.num_classes != num_classes:
        raise UsageError(f"model config has {model_cfg.num_classes} classes, the data has {num_classes}")

    model = build_model(model_cfg, seed=args.seed)
    t0 = time.perf_counter()
    log_path = os.path.join(out_dir, "metrics.jsonl")
    result = train(model, scans, proj, train_cfg, log_path=log_path)
    train_ms = (time.perf_counter() - t0) * 1000.0

    cm = evaluate_pointwise(model, scans, proj, _knn_from_args(args) if not args.no_knn else None)
    extras = {
        "proj.w": proj.w,
        "proj.h": proj.h,
        "proj.fov_up": repr(proj.fov_up),
        "proj.fov_down": repr(proj.fov_down),
    }
    ckpt_path = os.path.join(out_dir, "checkpoint.rseg")
    save_checkpoint(model, extras, path=ckpt_path)

    manifest = _manifest(
        "train",
        vars(args),
        {"train": train_ms, "total": train_ms},
        {
            "checkpoint": ckpt_path,
            "metrics_log": log_path,
            "epochs": len(result.history),
            "final_lr": result.final_lr,
            "final_train_miou_pointwise": cm.miou(),
            "per_class_iou": _iou_list(cm),
        },
    )
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(f"trained {len(result.history)} epochs; point-wise train mIoU {cm.miou():.4f}")
    return 0


def _iou_list(cm):
    return [None if math.isnan(v) else round(float(v), 6) for v in cm.iou()]


def cmd_infer(args):
    if not args.scans:
        raise UsageError("no scans given")
    model, _, extras = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    proj = _proj_from_args(args, extras)
    class_map = ClassMap.load(_require_file(args.classmap, "class map")) if args.classmap else None
    if class_map is not None and class_map.num_classes != model.cfg.num_classes:
        raise UsageError(f"class map has {class_map.num_classes} classes, the checkpoint {model.cfg.num_classes}")
    knn_cfg = None if args.no_knn else _knn_from_args(args)
    out_dir = _ensure_dir(args.out_dir)

    per_scan = []
    outputs = []
    totals = {"projection": 0.0, "network": 0.0, "knn": 0.0, "total": 0.0}
    for path in args.scans:
        scan = _load_scan(path)
        t0 = time.perf_counter()
        img = build_range_image(scan, proj)
        t1 = time.perf_counter()
        probs = model.forward(img.channels, mode="eval")
        pixel_labels = probs.argmax(axis=0).astype(np.int32)
        t2 = time.perf_counter()
        points = back_project(pixel_labels, img, fill=0)
        if knn_cfg is not None:
            points = knn_filter(img, pixel_labels, scan.ranges(), points, knn_cfg)
        t3 = time.perf_counter()

        out_path = os.path.join(out_dir, _stem(path) + ".label")
        write_atomic(out_path, write_kitti_labels(points, class_map))
        outputs.append(out_path)
        if args.png:
            save_labels(os.path.join(out_dir, _stem(path) + ".png"), pixel_labels, model.cfg.num_classes)
        timing = {
            "projection": (t1 - t0) * 1e3,
            "network": (t2 - t1) * 1e3,
            "knn": (t3 - t2) * 1e3,
            "total": (t3 - t0) * 1e3,
        }
        for k, v in timing.items():
            totals[k] += v
        per_scan.append({"scan": path, "out": out_path, **{k: round(v, 3) for k, v in timing.items()}})

    manifest = _manifest("infer", vars(args), totals, {"outputs": outputs, "per_scan": per_scan})
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(json.dumps({k: round(v, 3) for k, v in totals.items()}))
    return 0


def cmd_eval(args):
    preds = _expand_label_sources(args.pred, "prediction file")
    gts = _expand_label_sources(args.gt, "label file")
    pred_by_stem = {_stem(p): p for p in preds}
    gt_by_stem = {_stem(p): p for p in gts}
    if sorted(pred_by_stem) != sorted(gt_by_stem):
        raise UsageError("prediction and ground-truth file stems do not match")

    class_map = ClassMap.load(_require_file(args.classmap, "class map")) if args.classmap else None
    num_classes = args.classes or (class_map.num_classes if class_map else None)
    if num_classes is None:
        raise UsageError("need --classes or --classmap to size the confusion matrix")
    cm = ConfusionMatrix(num_classes)
    counts = 0
    for stem in sorted(pred_by_stem):
        p = _decode_file(pred_by_stem[stem], "prediction file", decode_kitti_labels)
        g = _decode_file(gt_by_stem[stem], "label file", decode_kitti_labels)
        if len(p) != len(g):
            raise UsageError(f"{stem}: {len(p)} predictions vs {len(g)} labels")
        if class_map is not None:
            p, g = class_map.remap(p), class_map.remap(g)
        cm.accumulate(g, p, ignore=args.ignore)
        counts += len(p)

    report = {
        "miou": cm.miou(),
        "per_class_iou": _iou_list(cm),
        "confusion": cm.counts.tolist(),
        "points": counts,
        "num_classes": num_classes,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        _write_json(args.out, report)
    print(text)
    return 0


def _flag_rate(rate, flag):
    """check_rate for a CLI flag: a rate outside [0, 1) is a usage error."""
    try:
        return check_rate(rate, flag)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None


def _parse_rates(text, search):
    """--rates as floats in [0, 1), or the default grid when it is not given."""
    if text is None:
        return default_rate_grid()
    if not search:
        raise UsageError("--rates needs --gt: the labels calibrate the rate search")
    try:
        rates = [float(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"--rates must be comma-separated numbers, got {text!r}")
    return [_flag_rate(r, "--rates entry") for r in rates]


def cmd_uncertainty(args):
    if not args.scans:
        raise UsageError("no scans given")
    if args.mc_trials < 1:
        raise UsageError("--mc-trials must be >= 1")
    search = args.gt is not None
    rates = _parse_rates(args.rates, search)
    if search and len(args.gt) != len(args.scans):
        raise UsageError("--gt must list one label file per scan")
    if args.rate is not None:
        _flag_rate(args.rate, "--rate")
    model, _, extras = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    proj = _proj_from_args(args, extras)
    for path in args.gt or ():
        _check_class_ids(_decode_file(path, "label file", decode_kitti_labels), model.cfg.num_classes, path)
    noise = None
    if args.noise_config:
        noise = SensorNoiseModel.from_dict(load_kv_file(_require_file(args.noise_config, "noise config")))
    elif args.noise_var is not None:
        noise = SensorNoiseModel.isotropic(args.noise_var)
    # the search needs each scan's ADF map even without noise: at 0 it is rounding residue, not 0
    adf_noise = SensorNoiseModel.isotropic(0.0) if noise is None and search else noise
    out_dir = _ensure_dir(args.out_dir)

    outputs = []
    timings = {"projection": 0.0, "adf": 0.0, "mc": 0.0}

    def scan_maps():
        """Write each scan's maps; with --gt, yield its calibration item as soon as it is made."""
        for i, path in enumerate(args.scans):
            scan = _load_scan(path)
            t0 = time.perf_counter()
            img = build_range_image(scan, proj)
            t1 = time.perf_counter()
            stem = _stem(path)
            if adf_noise is not None:  # before the holder fills: the ADF pass sets the peak
                aleatoric = adf_infer(model, img.channels, adf_noise, img.valid).aleatoric
            t2 = time.perf_counter()
            held = HeldPrefix()  # the scan's prefix, shared by this MC pass and the rate search
            mc = mc_dropout_infer(model, img.channels, args.mc_trials, seed=args.seed, rate=args.rate, held=held)
            for k, dt in zip(timings, (t1 - t0, t2 - t1, time.perf_counter() - t2)):
                timings[k] += dt * 1e3
            _write_npy(os.path.join(out_dir, f"{stem}_epistemic.npy"), mc.epistemic)
            outputs.append(save_grayscale(os.path.join(out_dir, f"{stem}_epistemic.png"), mc.epistemic))
            if noise is not None:
                _write_npy(os.path.join(out_dir, f"{stem}_aleatoric.npy"), aleatoric)
                outputs.append(save_grayscale(os.path.join(out_dir, f"{stem}_aleatoric.png"), aleatoric))
            if search:
                labeled = _decode_file(args.gt[i], "label file", read_kitti_labels, scan)
                yield img.channels, img.label_image(labeled.labels, fill=0), img.valid, aleatoric, held
            del held  # not kept through the next scan's ADF pass

    result = {"outputs": outputs, "mc_trials": args.mc_trials}
    start = time.perf_counter()
    if search:
        # the search takes each scan as it is made, so one scan's prefix is held at a time
        best, objectives = grid_search_dropout_rate(
            model, scan_maps(), rates, n_trials=args.mc_trials, seed=args.seed
        )
        result["selected_rate"] = best
        result["objectives"] = {f"{r:.6g}": o for r, o in sorted(objectives.items())}
        print(f"selected_rate={best:.6g}")
    else:
        for _ in scan_maps():
            pass
    timings["total"] = (time.perf_counter() - start) * 1e3
    if search:  # the search's MC passes, and the writing and label reading around them
        timings["search"] = timings["total"] - timings["projection"] - timings["adf"] - timings["mc"]

    manifest = _manifest("uncertainty", vars(args), timings, result)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0


def cmd_project(args):
    scan = _load_scan(args.scan)
    proj = _proj_from_args(args)
    out_dir = _ensure_dir(args.out_dir)
    t0 = time.perf_counter()
    img = build_range_image(scan, proj)
    proj_ms = (time.perf_counter() - t0) * 1e3

    outputs = []
    for i, name in enumerate(CHANNELS):
        outputs.append(save_grayscale(os.path.join(out_dir, f"{name}.png"), img.channels[i]))
    outputs.append(save_grayscale(os.path.join(out_dir, "valid.png"), img.valid.astype(np.float64)))

    mapped = int((img.pixel_of_point[:, 0] >= 0).sum())
    valid_pixels = int(img.valid.sum())
    report = {
        "points": len(scan),
        "mapped_points": mapped,
        "valid_pixels": valid_pixels,
        "collisions": mapped - valid_pixels,
    }
    manifest = _manifest(
        "project", vars(args), {"projection": proj_ms, "total": proj_ms},
        {"outputs": outputs, "report": report},
    )
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    print(json.dumps(report))
    return 0


# ---------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rangeseg",
        description="Range-image semantic segmentation of LiDAR point clouds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on synthetic or KITTI-format scans")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", action="store_true", help="generate a synthetic dataset")
    src.add_argument("--data", help="directory of .bin scans with matching .label files")
    p.add_argument("--classmap", help="raw-to-train id map file; needs --data")
    p.add_argument("--num-scans", type=int, default=None, help="synthetic dataset size, default 20")
    p.add_argument("--classes", type=int, help="class count, default 4; must match --classmap if both are given")
    p.add_argument("--epochs", type=int, default=None, help="default 30; not with --train-config")
    p.add_argument("--model-config", help="key=value model config file")
    p.add_argument("--train-config", help="key=value train config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds weights, scenes, shuffling and augmentation unless --train-config sets seed")
    p.add_argument("--no-augment", action="store_true", help="not with --train-config")
    _proj_flags(p)
    _knn_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="predict per-point labels for scans")
    p.add_argument("scans", nargs="*", help=".bin scan files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--classmap", help="write benchmark raw ids using this map")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--png", action="store_true", help="also write label-map images")
    _proj_flags(p)
    _knn_flags(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", nargs="+", required=True, help="prediction .label files or dirs")
    p.add_argument("--gt", nargs="+", required=True, help="ground-truth .label files or dirs")
    p.add_argument("--classes", type=int, help="number of classes")
    p.add_argument("--classmap", help="remap raw ids before scoring")
    p.add_argument("--ignore", type=int, nargs="*", default=(), help="ground-truth ids to skip")
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("uncertainty", help="epistemic/aleatoric maps, optional rate search")
    p.add_argument("scans", nargs="*", help=".bin scan files")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--mc-trials", type=int, default=30)
    p.add_argument("--rate", type=float, default=None, help="override the dropout rate")
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--noise-config", help="key=value per-channel variances (x,y,z,intensity,range)")
    noise.add_argument("--noise-var", type=float, default=None, help="isotropic input variance")
    p.add_argument("--rates", help="comma-separated candidate dropout rates; needs --gt")
    p.add_argument("--gt", nargs="*", help="label files, one per scan; runs the dropout-rate search")
    p.add_argument("--seed", type=int, default=0)
    _proj_flags(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("project", help="inspect the spherical projection of one scan")
    p.add_argument("--scan", required=True)
    p.add_argument("--out-dir", required=True)
    _proj_flags(p)
    p.set_defaults(func=cmd_project)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RangesegError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
