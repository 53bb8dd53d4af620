"""Range-window kNN vote versus a per-point brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangeseg.errors import ConfigError, DimensionError, InvalidTargetError
from rangeseg.pointcloud import default_scene_spec, generate_synthetic_scene
from rangeseg.postproc import GAP_EPS, WEIGHTINGS, KnnConfig, knn_filter
from rangeseg.projection import ProjectionConfig, RangeImage, build_range_image


def make_image(range_px, pixel_of_point):
    """Hand-build a RangeImage: range_px < 0 marks empty pixels."""
    range_px = np.asarray(range_px, dtype=np.float32)
    h, w = range_px.shape
    channels = np.zeros((5, h, w), dtype=np.float32)
    channels[4] = np.where(range_px >= 0, range_px, -1.0)
    return RangeImage(
        channels=channels,
        valid=range_px >= 0,
        pixel_of_point=np.asarray(pixel_of_point, dtype=np.int32),
        point_of_pixel=np.full((h, w), -1, dtype=np.int64),
        config=ProjectionConfig(w=w, h=h),
    )


def brute_force_knn(img, pixel_labels, point_ranges, point_labels, cfg):
    """Literal per-point loop with the documented tie rules."""
    h, w = img.valid.shape
    half = cfg.window // 2
    rng_px = img.range_channel()
    out = point_labels.copy()
    for i in range(img.num_points):
        u, v = img.pixel_of_point[i]
        if u < 0:
            continue
        cands = []
        slot = 0
        for dv in range(-half, half + 1):
            for du in range(-half, half + 1):
                vv, uu = v + dv, u + du
                if 0 <= vv < h and 0 <= uu < w and img.valid[vv, uu]:
                    gap = abs(float(rng_px[vv, uu]) - float(point_ranges[i]))
                    cands.append((gap, slot, int(pixel_labels[vv, uu])))
                slot += 1
        cands.sort(key=lambda t: (t[0], t[1]))
        kept = [c for c in cands[: cfg.k] if c[0] <= cfg.cutoff]
        if not kept:
            continue
        scores = {}
        for gap, _, lab in kept:
            wt = 1.0 if cfg.weighting == "uniform" else 1.0 / (GAP_EPS + gap)
            scores[lab] = scores.get(lab, 0.0) + wt
        top = max(scores.values())
        out[i] = min(lab for lab, s in scores.items() if s == top)
    return out


class TestKnnConfig:
    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            KnnConfig(window=4)

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            KnnConfig(window=3, k=10)
        with pytest.raises(ConfigError):
            KnnConfig(k=0)

    def test_cutoff_positive(self):
        with pytest.raises(ConfigError):
            KnnConfig(cutoff=0.0)

    @pytest.mark.parametrize("cutoff", [np.inf, np.nan])
    def test_cutoff_finite(self, cutoff):
        # an infinite cutoff would let empty and pad slots vote
        with pytest.raises(ConfigError):
            KnnConfig(cutoff=cutoff)

    def test_weighting_name_checked(self):
        with pytest.raises(ConfigError):
            KnnConfig(weighting="gaussian")

    def test_defaults(self):
        cfg = KnnConfig()
        assert (cfg.window, cfg.k, cfg.cutoff) == (5, 5, 1.0)
        assert cfg.weighting == "inverse-range-gap"


# half-metre steps make range gaps tie exactly; -1 marks an empty pixel
RANGE_STEPS = [-1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 6.0]


@st.composite
def knn_cases(draw):
    """Small images (windows may exceed them), empty pixels labelled -1, and
    points that are unmapped or sit on any pixel, empty or not."""
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    window = draw(st.sampled_from([1, 3, 5, 7, 9]))
    cfg = KnnConfig(window=window, k=draw(st.integers(1, window**2)),
                    cutoff=draw(st.sampled_from([0.25, 0.5, 1.0, 3.0])),
                    weighting=draw(st.sampled_from(WEIGHTINGS)))
    range_px = np.array(draw(st.lists(st.sampled_from(RANGE_STEPS), min_size=h * w,
                                      max_size=h * w))).reshape(h, w)
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=h * w, max_size=h * w)))
    pixel_labels = np.where(range_px >= 0, labels.reshape(h, w), -1).astype(np.int32)
    pixels = draw(st.lists(st.integers(-1, h * w - 1), max_size=12))
    pix = np.array([(p % w, p // w) if p >= 0 else (-1, -1) for p in pixels]).reshape(-1, 2)
    n = len(pixels)
    ranges = np.array(draw(st.lists(st.sampled_from(RANGE_STEPS[1:] + [2.2, 5.1]),
                                    min_size=n, max_size=n)))
    point_labels = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                            dtype=np.int32)
    return make_image(range_px, pix), pixel_labels, ranges, point_labels, cfg


class TestAgainstBruteForce:
    @pytest.mark.parametrize("window", [3, 5])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("weighting", ["uniform", "inverse-range-gap"])
    def test_random_images(self, window, k, weighting):
        rng = np.random.default_rng(window * 100 + k * 10 + len(weighting))
        cfg = KnnConfig(window=window, k=k, cutoff=1.0, weighting=weighting)
        scan = generate_synthetic_scene(seed=3, spec=default_scene_spec(3))
        img = build_range_image(scan, ProjectionConfig(w=32, h=16))
        pixel_labels = rng.integers(0, 4, size=(16, 32)).astype(np.int32)
        pts = img.num_points
        point_labels = rng.integers(0, 4, size=pts).astype(np.int32)
        point_ranges = scan.ranges() + rng.normal(scale=0.3, size=pts)
        got = knn_filter(img, pixel_labels, point_ranges, point_labels, cfg)
        want = brute_force_knn(img, pixel_labels, point_ranges, point_labels, cfg)
        np.testing.assert_array_equal(got, want)

    def test_tight_cutoff_against_oracle(self):
        rng = np.random.default_rng(0)
        cfg = KnnConfig(window=5, k=5, cutoff=0.05)
        scan = generate_synthetic_scene(seed=1, spec=default_scene_spec(1))
        img = build_range_image(scan, ProjectionConfig(w=32, h=16))
        pixel_labels = rng.integers(0, 3, size=(16, 32)).astype(np.int32)
        point_labels = rng.integers(0, 3, size=img.num_points).astype(np.int32)
        ranges = scan.ranges().astype(np.float64)
        got = knn_filter(img, pixel_labels, ranges, point_labels, cfg)
        want = brute_force_knn(img, pixel_labels, ranges, point_labels, cfg)
        np.testing.assert_array_equal(got, want)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(knn_cases())
    def test_hypothesis_cases(self, case):
        img, pixel_labels, ranges, point_labels, cfg = case
        got = knn_filter(img, pixel_labels, ranges, point_labels, cfg)
        want = brute_force_knn(img, pixel_labels, ranges, point_labels, cfg)
        np.testing.assert_array_equal(got, want)


class TestLabelContract:
    def test_negative_label_on_valid_pixel_raises(self):
        img = make_image(np.full((1, 3), 5.0), [(0, 0), (1, 0), (2, 0)])
        with pytest.raises(InvalidTargetError):
            knn_filter(img, np.array([[-1, -1, 0]], dtype=np.int32), np.full(3, 5.0),
                       np.zeros(3, dtype=np.int32),
                       KnnConfig(window=3, k=3, weighting="uniform"))

    def test_labels_on_empty_pixels_ignored(self):
        # the empty pixels carry a negative and a large label; neither votes
        range_px = np.array([[5.0, -1.0, 5.0, -1.0]], dtype=np.float32)
        img = make_image(range_px, [(0, 0), (2, 0)])
        pixel_labels = np.array([[2, -1, 1, 99]], dtype=np.int64)
        cfg = KnnConfig(window=3, k=3, weighting="uniform")
        args = (img, pixel_labels, np.full(2, 5.0), np.array([7, 7], dtype=np.int32), cfg)
        got = knn_filter(*args)
        np.testing.assert_array_equal(got, [2, 1])
        np.testing.assert_array_equal(got, brute_force_knn(*args))


class TestSemantics:
    def test_consensus_is_fixed_point(self):
        range_px = np.full((5, 5), 7.0)
        pix = [(u, v) for v in range(5) for u in range(5)]
        img = make_image(range_px, pix)
        labels = np.full((5, 5), 2, dtype=np.int32)
        pts = np.full(25, 2, dtype=np.int32)
        out = knn_filter(img, labels, np.full(25, 7.0), pts)
        np.testing.assert_array_equal(out, pts)

    def test_occluded_point_recovers_own_surface(self):
        # pixel (2,2) was won by a near point (range 5, class 1); the occluded
        # point's own range is 10 and the surrounding pixels hold the far
        # surface (range 10, class 2), so its vote must flip to class 2
        range_px = np.full((5, 5), 10.0, dtype=np.float32)
        range_px[2, 2] = 5.0
        pixel_labels = np.full((5, 5), 2, dtype=np.int32)
        pixel_labels[2, 2] = 1
        img = make_image(range_px, [(2, 2), (2, 2)])
        point_ranges = np.array([5.0, 10.0])
        back_projected = np.array([1, 1], dtype=np.int32)
        out = knn_filter(img, pixel_labels, point_ranges, back_projected,
                         KnnConfig(window=3, k=5, cutoff=1.0))
        assert out[0] == 1   # the winner keeps its label
        assert out[1] == 2   # the shadowed point flips to the far surface

    def test_cutoff_keeps_input_when_all_gaps_large(self):
        range_px = np.full((3, 3), 50.0, dtype=np.float32)
        img = make_image(range_px, [(1, 1)])
        out = knn_filter(img, np.full((3, 3), 4, dtype=np.int32),
                         np.array([2.0]), np.array([9], dtype=np.int32),
                         KnnConfig(window=3, k=3, cutoff=1.0))
        assert out[0] == 9

    def test_unmapped_point_untouched(self):
        range_px = np.full((3, 3), 5.0, dtype=np.float32)
        img = make_image(range_px, [(1, 1), (-1, -1)])
        out = knn_filter(img, np.zeros((3, 3), dtype=np.int32),
                         np.array([5.0, 5.0]), np.array([3, 7], dtype=np.int32))
        assert out[0] == 0 and out[1] == 7

    def test_k1_takes_nearest_in_range(self):
        range_px = np.array([[4.0, 8.0, 6.0]], dtype=np.float32)
        img = make_image(range_px, [(1, 0)])
        labels = np.array([[0, 1, 2]], dtype=np.int32)
        out = knn_filter(img, labels, np.array([5.9]), np.array([1], dtype=np.int32),
                         KnnConfig(window=3, k=1, cutoff=10.0))
        assert out[0] == 2  # |6 - 5.9| is the smallest gap

    def test_weighting_changes_the_vote(self):
        # two neighbors of class 0 at gap 0.9 vs one of class 1 at gap 0.01:
        # uniform counts 2 > 1, inverse-range-gap favors the close neighbor
        range_px = np.array([[10.9, 10.9, 10.01]], dtype=np.float32)
        img = make_image(range_px, [(0, 0)])
        labels = np.array([[0, 0, 1]], dtype=np.int32)
        args = (img, labels, np.array([10.0]), np.array([5], dtype=np.int32))
        uniform = knn_filter(*args, KnnConfig(window=5, k=3, cutoff=1.0,
                                              weighting="uniform"))
        inverse = knn_filter(*args, KnnConfig(window=5, k=3, cutoff=1.0,
                                              weighting="inverse-range-gap"))
        assert uniform[0] == 0
        assert inverse[0] == 1

    def test_vote_tie_takes_smaller_class(self):
        range_px = np.array([[7.0, 7.0]], dtype=np.float32)
        img = make_image(range_px, [(0, 0)])
        labels = np.array([[3, 1]], dtype=np.int32)
        out = knn_filter(img, labels, np.array([7.0]), np.array([9], dtype=np.int32),
                         KnnConfig(window=3, k=2, cutoff=1.0, weighting="uniform"))
        assert out[0] == 1

    def test_shape_validation(self):
        range_px = np.full((3, 3), 5.0, dtype=np.float32)
        img = make_image(range_px, [(1, 1)])
        with pytest.raises(DimensionError):
            knn_filter(img, np.zeros((2, 2), dtype=np.int32),
                       np.array([5.0]), np.array([0], dtype=np.int32))
        with pytest.raises(DimensionError):
            knn_filter(img, np.zeros((3, 3), dtype=np.int32),
                       np.array([5.0, 6.0]), np.array([0], dtype=np.int32))

    def test_output_dtype_matches_input(self):
        range_px = np.full((3, 3), 5.0, dtype=np.float32)
        img = make_image(range_px, [(1, 1)])
        out = knn_filter(img, np.zeros((3, 3), dtype=np.int32),
                         np.array([5.0]), np.array([0], dtype=np.int64))
        assert out.dtype == np.int64
