"""In-memory span tracing around the public calls of each rangeseg module.

Nothing in the package is edited: the tracer shadows module attributes
(functions a module calls by their global name, such as
``rangeseg.train.sgd_step``), ``ConfusionMatrix.accumulate``, and
``forward``/``backward``/``adf`` on the model and on every instance that
``Model.named_layers()`` returns. A span is ``[name, start, end, parent, op,
macs, im2col_bytes, kernel, batch]``; ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the benchmark operation that caused
it, and the last four are filled for convolutions only. Spans stay in
memory until the run writes them out.

Span names:
  ``layer:<Type>:<layer name>:fwd|bwd``  one layer call (``head.softmax`` is
                                         the model's output softmax)
  ``adf:<rule>:<layer name>``            one ADF rule (conv2d, leaky_relu,
                                         batch_norm, other)
  ``model.forward.<mode>``, ``model.backward``, ``model.adf``
  ``<module>.<function>``                a public function of that module
"""

from __future__ import annotations

import functools
import importlib
import time

import rangeseg.checkpoint as checkpoint
import rangeseg.losses as losses
import rangeseg.metrics as metrics
import rangeseg.model as model_mod
import rangeseg.pointcloud as pointcloud
import rangeseg.postproc as postproc
import rangeseg.projection as projection
import rangeseg.uncertainty as uncertainty
from rangeseg.layers import BatchNorm2d, Conv2d, LeakyReLU

# the package's __init__ re-exports the function train(), which hides the
# submodule from `import rangeseg.train as ...`
train_mod = importlib.import_module("rangeseg.train")

NAME, START, END, PARENT, OP, MACS, IM2COL, KERNEL, BATCH = range(9)

# (module object, attribute) pairs wrapped as "<defining module>.<function>".
# Functions that rangeseg.train imported by name are wrapped where train
# looks them up.
FUNCTIONS = (
    (pointcloud, "read_kitti_scan"),
    (pointcloud, "write_kitti_labels"),
    (train_mod, "augment_scan"),
    (projection, "build_range_image"),
    (train_mod, "build_range_image"),
    (projection, "back_project"),
    (postproc, "knn_filter"),
    (losses, "weighted_cross_entropy"),
    (losses, "lovasz_softmax"),
    (train_mod, "sgd_step"),
    (train_mod, "reestimate_bn_stats"),
    (uncertainty, "mc_dropout_infer"),
    (uncertainty, "adf_infer"),
    (uncertainty, "nll_objective"),
    (checkpoint, "load_checkpoint"),
)

ADF_RULES = {Conv2d: "conv2d", LeakyReLU: "leaky_relu", BatchNorm2d: "batch_norm"}


class Tracer:
    """Records spans; ``install`` and ``attach`` put the wrappers in place.

    A finished span is stored as one tuple of numbers and strings, which the
    garbage collector stops tracking, so a long trace adds no collection
    pauses to the spans that follow it.
    """

    def __init__(self):
        self.op = -1
        self.enabled = False  # wrappers pass straight through while False
        self._done = []
        self._next = 0
        self._stack = []
        self._layer_names = {}

    @property
    def spans(self):
        """Finished spans in the order they opened; ``parent`` indexes this list."""
        return [s[1:] for s in sorted(self._done)]

    def _span(self, name, fn, args, kwargs, counts=None):
        idx = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        out = None
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            end = time.perf_counter()
            self._stack.pop()
            extra = counts(args, out) if counts is not None and out is not None else (0, 0, 0, 0)
            self._done.append((idx, name, start, end, parent, self.op) + extra)

    def wrap(self, fn, name=None, name_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._span(name if name_of is None else name_of(args, kwargs), fn, args, kwargs)

        return traced

    def install(self):
        """Wrap the module-level public functions and the metrics accumulator."""
        for module, attr in FUNCTIONS:
            fn = getattr(module, attr)
            setattr(module, attr, self.wrap(fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"))
        model_mod.adf_forward = self.wrap(model_mod.adf_forward, name_of=self._adf_name)
        cm = metrics.ConfusionMatrix
        cm.accumulate = self.wrap(cm.accumulate, "metrics.accumulate")

    def _adf_name(self, args, kwargs):
        layer = args[0]
        rule = ADF_RULES.get(type(layer), "other")
        return f"adf:{rule}:{self._layer_names.get(id(layer), type(layer).__name__)}"

    def attach(self, model):
        """Shadow forward/backward on the model and each of its layers."""
        layers = list(model.named_layers()) + [("head.softmax", model.softmax)]
        for lname, layer in layers:
            self._layer_names[id(layer)] = lname
            kind = type(layer).__name__
            if isinstance(layer, Conv2d):
                layer.forward = self._conv(layer, layer.forward, f"layer:{kind}:{lname}:fwd", 1)
                layer.backward = self._conv(layer, layer.backward, f"layer:{kind}:{lname}:bwd", 2)
            else:
                layer.forward = self.wrap(layer.forward, f"layer:{kind}:{lname}:fwd")
                layer.backward = self.wrap(layer.backward, f"layer:{kind}:{lname}:bwd")
        model.forward = self.wrap(model.forward, name_of=_forward_name)
        model.backward = self.wrap(model.backward, "model.backward")
        model.adf = self.wrap(model.adf, "model.adf")
        return model

    def _conv(self, layer, fn, name, passes):
        """Conv wrapper that also records MACs and im2col bytes from the shapes.

        Counts come from the tensors and the kernel shape, not from the
        package's own accounting. Backward does two products of forward size
        (weight and input gradient), so its MACs are doubled; it builds no
        im2col buffer.
        """

        def counts(args, out):
            t = args[0]
            c_out, c_in, k, _ = layer.kernel.value.shape
            n, _, ho, wo = out.shape if passes == 1 else t.shape
            im2col = n * c_in * k * k * ho * wo * t.dtype.itemsize if passes == 1 and k > 1 else 0
            return passes * n * ho * wo * c_out * c_in * k * k, im2col, k, n

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self._span(name, fn, args, kwargs, counts)

        return traced


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "eval")
    return f"model.forward.{mode}"


LAYER_TYPES = ("Conv2d", "BatchNorm2d", "LeakyReLU", "AvgPool2x2", "PixelShuffle", "ChannelDropout",
               "Softmax")
# Stage names of both benchmarked configurations; micro has no enc2/enc3/dec2/dec3.
STAGES = ("context0", "context1", "enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2", "dec3", "head")
ADF_METRICS = ("conv2d", "leaky_relu", "batch_norm", "other")
MODULE_TIMES = (
    "uncertainty.mc_dropout_infer", "uncertainty.adf_infer", "uncertainty.nll_objective",
    "postproc.knn_filter", "projection.build_range_image", "projection.back_project",
    "losses.weighted_cross_entropy", "losses.lovasz_softmax",
    "train.sgd_step", "train.reestimate_bn_stats",
    "pointcloud.augment_scan", "pointcloud.read_kitti_scan", "pointcloud.write_kitti_labels",
    "metrics.accumulate",
)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def model_owner(spans):
    """Index of the nearest enclosing ``model.*`` span of each span, or -1."""
    owner = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s[NAME].startswith("model."):
            owner[i] = i
        elif s[PARENT] >= 0:
            owner[i] = owner[s[PARENT]]
    return owner


def per_layer_metrics(spans, items):
    """Aggregate spans into per-layer metrics; times are ms per item.

    ``items`` is the workload's unit of work in the traced phase (scans, or
    training images). Layer metrics are self times of layer calls under
    ``model.forward``/``model.backward``; layer calls made inside an ADF rule
    belong to that rule's ``adf.*`` time. ``adf.*``, ``model.*`` and module
    metrics are inclusive span times.
    """
    selft = self_times(spans)
    owner = model_owner(spans)
    per = 1e3 / items
    layer = {(t, d): 0.0 for t in LAYER_TYPES for d in ("fwd", "bwd")}
    stage = dict.fromkeys(STAGES, 0.0)
    conv_k = {"k1": 0.0, "k3": 0.0}
    conv_macs = {"fwd": 0, "bwd": 0}
    adf = dict.fromkeys(ADF_METRICS, 0.0)
    inclusive = {}
    model_dur = model_self = 0.0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if name.startswith("layer:"):
            if owner[i] < 0 or spans[owner[i]][NAME] == "model.adf":
                continue
            _, kind, lname, direction = name.split(":")
            layer[kind, direction] += selft[i]
            stage[lname.split(".")[0]] += selft[i]
            if kind == "Conv2d":
                conv_macs[direction] += s[MACS]
                conv_k["k1" if s[KERNEL] == 1 else "k3"] += selft[i]
        elif name.startswith("adf:"):
            adf[name.split(":")[1]] += dur
        else:
            inclusive[name] = inclusive.get(name, 0.0) + dur
            if name.startswith("model."):
                model_dur += dur
                model_self += selft[i]
    out = {f"layers.{kind}.{d}.ms": t * per for (kind, d), t in layer.items()}
    out.update({f"layers.Conv2d.{k}.ms": t * per for k, t in conv_k.items()})
    for d in ("fwd", "bwd"):
        t = layer["Conv2d", d]
        out[f"layers.Conv2d.{d}.gflops"] = 2 * conv_macs[d] / t / 1e9 if t else 0.0
    out.update({f"layers.{st}.ms": t * per for st, t in stage.items()})
    for name in ("forward.eval", "forward.train", "forward.mc", "backward", "adf"):
        out[f"model.{name}.ms"] = inclusive.get(f"model.{name}", 0.0) * per
    out["model.layer_coverage_pct"] = 100.0 * (1.0 - model_self / model_dur) if model_dur else 0.0
    out.update({f"adf.{rule}.ms": t * per for rule, t in adf.items()})
    out.update({f"{name}.ms": inclusive.get(name, 0.0) * per for name in MODULE_TIMES})
    out["uncertainty.mc_forwards"] = sum(s[NAME] == "model.forward.mc" for s in spans) / items
    loads = [s[END] - s[START] for s in spans if s[NAME] == "checkpoint.load_checkpoint"]
    out["checkpoint.load_checkpoint.ms"] = 1e3 * sum(loads) / len(loads) if loads else 0.0
    macs, im2col, _ = forward_counts(spans)
    out["model.gflop"] = 2 * macs / 1e9
    out["layers.Conv2d.im2col_bytes"] = im2col
    return out


def forward_counts(spans):
    """Per-image counts of the first traced ``model.forward``, from tensor shapes.

    Returns (MACs, im2col bytes, {stage: MACs}); zeros if no forward was traced.
    """
    owner = model_owner(spans)
    first = next((i for i, s in enumerate(spans) if s[NAME].startswith("model.forward.")), len(spans))
    macs = im2col = 0
    stage_macs = dict.fromkeys(STAGES, 0)
    for i in range(first + 1, len(spans)):
        s = spans[i]
        if owner[i] != first:
            if s[START] > spans[first][END]:
                break
            continue
        if s[NAME].startswith("layer:Conv2d:") and s[NAME].endswith(":fwd"):
            macs += s[MACS] // s[BATCH]
            im2col += s[IM2COL] // s[BATCH]
            stage_macs[s[NAME].split(":")[2].split(".")[0]] += s[MACS] // s[BATCH]
    return macs, im2col, stage_macs


def coverage_per_span(spans):
    """(name, ms, share covered by child spans) of every ``model.forward``/``model.adf`` span."""
    selft = self_times(spans)
    out = []
    for i, s in enumerate(spans):
        if s[NAME].startswith("model.forward.") or s[NAME] == "model.adf":
            dur = s[END] - s[START]
            out.append((s[NAME], dur * 1e3, 1.0 - selft[i] / dur if dur else 0.0))
    return out
