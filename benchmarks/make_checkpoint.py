"""Reproduce benchmarks/micro.rseg, the trained micro checkpoint the benchmark loads.

Recipe of acceptance criterion 6: 20 synthetic 64x512 scans (scene seeds
1000..1019, spec seeds 0..19), model seed 3, TrainConfig(epochs=25,
batch_size=2, lr0=0.02, seed=11, augment=False). Training is seeded, so on a
single BLAS thread the output is byte-identical run to run.

    python3 benchmarks/make_checkpoint.py [--out benchmarks/micro.rseg]
"""

import argparse
import hashlib
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from rangeseg.checkpoint import save_checkpoint  # noqa: E402
from rangeseg.model import build_model, micro_config  # noqa: E402
from rangeseg.pointcloud import default_scene_spec, generate_synthetic_scene  # noqa: E402
from rangeseg.projection import ProjectionConfig  # noqa: E402
from rangeseg.train import TrainConfig, train  # noqa: E402

NUM_CLASSES = 4
PROJ = ProjectionConfig(w=512, h=64)
TRAIN_SEEDS = range(20)  # spec seeds; scene seed is 1000 + spec seed
RECIPE = TrainConfig(epochs=25, batch_size=2, lr0=0.02, seed=11, augment=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "benchmarks", "micro.rseg"))
    args = ap.parse_args(argv)
    scans = [
        generate_synthetic_scene(seed=1000 + s, spec=default_scene_spec(
            s, num_classes=NUM_CLASSES, rows=PROJ.h, cols=PROJ.w))
        for s in TRAIN_SEEDS
    ]
    model = build_model(micro_config(num_classes=NUM_CLASSES), seed=3)
    train(model, scans, PROJ, RECIPE)
    blob = save_checkpoint(model, {
        "proj.w": PROJ.w, "proj.h": PROJ.h,
        "proj.fov_up": repr(PROJ.fov_up), "proj.fov_down": repr(PROJ.fov_down),
    }, path=args.out)
    print(f"{args.out}: {len(blob)} bytes, sha256 {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
