"""KITTI binary I/O, class maps, synthetic scenes, augmentation, frequencies."""

import math
import struct

import numpy as np
import pytest

from rangeseg.errors import (
    ClassMapError,
    ConfigError,
    InvalidPointError,
    MissingLabelsError,
    ScanFormatError,
    SceneSpecError,
)
from rangeseg.pointcloud import (
    AugmentConfig,
    ClassMap,
    LidarScan,
    Primitive,
    SceneSpec,
    augment_scan,
    compute_class_frequencies,
    default_scene_spec,
    generate_synthetic_scene,
    read_kitti_labels,
    read_kitti_scan,
    write_kitti_labels,
    write_kitti_scan,
)


def random_scan(rng, n=200, labeled=True):
    xyz = rng.normal(scale=10.0, size=(n, 3)).astype(np.float32)
    xyz[np.linalg.norm(xyz, axis=1) < 0.5] += 2.0  # keep ranges away from 0
    intensity = rng.random(n).astype(np.float32)
    labels = rng.integers(0, 4, n).astype(np.int32) if labeled else None
    return LidarScan(xyz=xyz, intensity=intensity, labels=labels)


class TestScanIO:
    def test_empty_blob_gives_empty_scan(self):
        assert len(read_kitti_scan(b"")) == 0

    def test_single_record_decodes_fields(self):
        blob = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
        scan = read_kitti_scan(blob)
        assert len(scan) == 1
        np.testing.assert_array_equal(scan.xyz[0], [1.0, 2.0, 3.0])
        assert scan.intensity[0] == 0.5

    def test_length_not_multiple_of_16_rejected(self):
        with pytest.raises(ScanFormatError):
            read_kitti_scan(b"\x00" * 33)

    def test_non_finite_coordinate_rejected_with_index(self):
        good = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
        bad = struct.pack("<4f", float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(InvalidPointError, match="1"):
            read_kitti_scan(good + bad)

    def test_write_read_round_trip_bit_exact(self):
        scan = random_scan(np.random.default_rng(0), labeled=False)
        again = read_kitti_scan(write_kitti_scan(scan))
        np.testing.assert_array_equal(scan.xyz, again.xyz)
        np.testing.assert_array_equal(scan.intensity, again.intensity)
        assert write_kitti_scan(again) == write_kitti_scan(scan)


class TestLabelIO:
    def test_empty_labels_for_empty_scan(self):
        scan = read_kitti_scan(b"")
        assert len(read_kitti_labels(b"", scan).labels) == 0

    def test_low_16_bits_extracted(self):
        scan = read_kitti_scan(struct.pack("<4f", 1, 0, 0, 0))
        # instance id 7 in the upper half word must be dropped
        blob = struct.pack("<I", (7 << 16) | 42)
        assert read_kitti_labels(blob, scan).labels[0] == 42

    def test_length_mismatch_rejected(self):
        scan = read_kitti_scan(struct.pack("<4f", 1, 0, 0, 0))
        with pytest.raises(ScanFormatError):
            read_kitti_labels(b"\x00" * 8, scan)

    def test_remap_through_class_map(self):
        cmap = ClassMap.from_text("10 0 car\n40 1 road\n")
        scan = read_kitti_scan(struct.pack("<4f", 1, 0, 0, 0) * 2)
        labeled = read_kitti_labels(struct.pack("<II", 10, 40), scan, cmap)
        np.testing.assert_array_equal(labeled.labels, [0, 1])

    def test_label_write_read_round_trip(self):
        labels = np.array([0, 1, 2, 65535], dtype=np.int64)
        blob = write_kitti_labels(labels)
        assert len(blob) == 16
        back = np.frombuffer(blob, dtype="<u4") & 0xFFFF
        np.testing.assert_array_equal(back, labels)


class TestClassMap:
    def test_duplicate_raw_id_rejected(self):
        with pytest.raises(ClassMapError):
            ClassMap.from_text("10 0 car\n10 1 road\n")

    def test_unknown_raw_id_rejected(self):
        cmap = ClassMap.from_text("10 0 car\n")
        with pytest.raises(ClassMapError):
            cmap.remap(np.array([11]))

    def test_unmap_uses_representative_raw_id(self):
        cmap = ClassMap.from_text("10 1 car\n252 1 moving-car\n40 0 road\n")
        np.testing.assert_array_equal(cmap.unmap(np.array([1, 0, 1])), [10, 40, 10])

    @pytest.mark.parametrize("ids", [[0, 3], [-1], [1]], ids=["past-the-end", "negative", "gap"])
    def test_unmap_rejects_ids_without_raw_id(self, ids):
        cmap = ClassMap.from_text("10 0 car\n40 2 road\n")  # training id 1 has no raw id
        with pytest.raises(ClassMapError):
            cmap.unmap(np.array(ids))

    def test_negative_training_id_rejected(self):
        with pytest.raises(ClassMapError):
            ClassMap.from_text("10 -1 car\n")

    def test_non_utf8_file_rejected_naming_it(self, tmp_path):
        path = tmp_path / "bad.classmap"
        path.write_bytes(b"10 0 car\n40 1 r\xf6ad\n")
        with pytest.raises(ClassMapError) as exc:
            ClassMap.load(path)
        assert str(path) in str(exc.value)

    def test_parse_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.classmap"
        path.write_text("10 0 car\n40 1\n")
        with pytest.raises(ClassMapError) as exc:
            ClassMap.load(path)
        assert str(exc.value).startswith(f"{path}: line 2: expected 'raw train name'")

    def test_shipped_semantic_kitti_map(self):
        import rangeseg

        path = f"{list(rangeseg.__path__)[0]}/assets/semantic_kitti_19.classmap"
        cmap = ClassMap.load(path)
        assert cmap.num_classes == 20  # 19 evaluated classes + the unlabeled bucket
        np.testing.assert_array_equal(cmap.remap(np.array([10, 40, 81, 252])), [1, 9, 19, 1])
        assert cmap.names[1] == "car"


class TestSyntheticScenes:
    def test_same_seed_is_deterministic(self):
        spec = default_scene_spec(3)
        a = generate_synthetic_scene(seed=11, spec=spec)
        b = generate_synthetic_scene(seed=11, spec=spec)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        np.testing.assert_array_equal(a.intensity, b.intensity)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_changes_intensity_noise(self):
        # geometry is fixed by the spec; the seed only drives sensor noise
        spec = default_scene_spec(3)
        a = generate_synthetic_scene(seed=1, spec=spec)
        b = generate_synthetic_scene(seed=2, spec=spec)
        assert np.array_equal(a.xyz, b.xyz)
        assert not np.array_equal(a.intensity, b.intensity)

    def test_plane_only_scene_is_all_ground(self):
        # classes must be >= 2, so add one box and check the plane points only
        spec = SceneSpec(
            primitives=(
                Primitive("plane", 0, (-2.0,)),
                Primitive("box", 1, (5.0, 8.0, -1.0, 1.0, -2.0, 0.0)),
            ),
            rows=32,
            cols=128,
        )
        scan = generate_synthetic_scene(seed=5, spec=spec)
        ground = scan.xyz[scan.labels == 0]
        # every ground hit must sit on the z = -2 plane
        np.testing.assert_allclose(ground[:, 2], -2.0, atol=1e-4)

    def test_all_classes_present_or_error(self):
        # a box behind the scanner's max range can never be hit
        spec = SceneSpec(
            primitives=(
                Primitive("plane", 0, (-2.0,)),
                Primitive("box", 1, (500.0, 501.0, -1.0, 1.0, -2.0, 0.0)),
            ),
            rows=16,
            cols=64,
            max_range=50.0,
        )
        with pytest.raises(SceneSpecError):
            generate_synthetic_scene(seed=0, spec=spec)

    def test_fewer_than_two_classes_rejected(self):
        with pytest.raises(SceneSpecError):
            generate_synthetic_scene(
                seed=0, spec=SceneSpec(primitives=(Primitive("plane", 0, (-2.0,)),))
            )

    def test_box_hit_counts_match_independent_raycast(self):
        """Re-derive the box/plane split with a brute-force ray marcher."""
        spec = SceneSpec(
            primitives=(
                Primitive("plane", 0, (-2.0,)),
                Primitive("box", 1, (6.0, 9.0, -2.0, 2.0, -2.0, 1.0)),
            ),
            rows=24,
            cols=96,
            intensity_noise=0.0,
        )
        scan = generate_synthetic_scene(seed=7, spec=spec)

        # independent oracle: march each scanner ray and record the first hit
        fov = abs(spec.fov_down) + abs(spec.fov_up)
        expected = {0: 0, 1: 0}
        for v in range(spec.rows):
            pitch = (1.0 - (v + 0.5) / spec.rows) * fov - abs(spec.fov_down)
            for u in range(spec.cols):
                yaw = math.pi * (1.0 - 2.0 * (u + 0.5) / spec.cols)
                d = np.array(
                    [math.cos(pitch) * math.cos(yaw), math.cos(pitch) * math.sin(yaw), math.sin(pitch)]
                )
                hit = None
                for t in np.arange(0.05, spec.max_range, 0.01):
                    p = t * d
                    if 6.0 <= p[0] <= 9.0 and -2.0 <= p[1] <= 2.0 and -2.0 <= p[2] <= 1.0:
                        hit = 1
                        break
                    if p[2] <= -2.0:
                        hit = 0
                        break
                if hit is not None:
                    expected[hit] += 1
        counts = dict(zip(*np.unique(scan.labels, return_counts=True)))
        # the coarse marcher can differ by a pixel or two along edges
        assert abs(counts[1] - expected[1]) <= max(3, 0.02 * expected[1])
        assert abs(counts[0] - expected[0]) <= max(3, 0.02 * expected[0])

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_spec_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            default_scene_spec(seed)

    @pytest.mark.parametrize("seed", [-1, 2.5, True], ids=["negative", "float", "bool"])
    def test_scene_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            generate_synthetic_scene(seed, default_scene_spec(2))

    def test_ranges_bounded_by_max_range(self):
        scan = generate_synthetic_scene(seed=2, spec=default_scene_spec(2))
        assert scan.ranges().max() <= default_scene_spec(2).max_range + 1e-5


class TestAugmentation:
    def scan(self):
        return LidarScan(
            xyz=np.array([[1.0, 2.0, 3.0]], dtype=np.float32),
            intensity=np.array([0.5], dtype=np.float32),
            labels=np.array([2], dtype=np.int32),
        )

    def test_zero_probabilities_are_identity(self):
        cfg = AugmentConfig(prob_rotation=0, prob_translation=0, prob_flip=0, prob_drop=0)
        out = augment_scan(self.scan(), seed=3, config=cfg)
        np.testing.assert_array_equal(out.xyz, self.scan().xyz)
        np.testing.assert_array_equal(out.labels, self.scan().labels)

    def test_forced_flip_negates_y(self):
        cfg = AugmentConfig(prob_rotation=0, prob_translation=0, prob_flip=1, prob_drop=0)
        out = augment_scan(self.scan(), seed=0, config=cfg)
        np.testing.assert_allclose(out.xyz[0], [1.0, -2.0, 3.0])
        assert out.labels[0] == 2

    def test_forced_quarter_rotation(self):
        cfg = AugmentConfig(
            prob_rotation=1,
            prob_translation=0,
            prob_flip=0,
            prob_drop=0,
            rotation_range=(math.pi / 2, math.pi / 2),
        )
        scan = LidarScan(
            xyz=np.array([[1.0, 0.0, 0.0]], dtype=np.float32),
            intensity=np.array([0.1], dtype=np.float32),
            labels=np.array([0], dtype=np.int32),
        )
        out = augment_scan(scan, seed=0, config=cfg)
        np.testing.assert_allclose(out.xyz[0], [0.0, 1.0, 0.0], atol=1e-6)

    def test_unlabeled_scan_rejected(self):
        scan = LidarScan(
            xyz=np.ones((1, 3), dtype=np.float32), intensity=np.zeros(1, dtype=np.float32)
        )
        with pytest.raises(MissingLabelsError):
            augment_scan(scan, seed=0)

    def test_seeded_determinism_and_drop_subsequence(self):
        scan = random_scan(np.random.default_rng(4), n=500)
        cfg = AugmentConfig(prob_drop=1.0, drop_range=(0.3, 0.3))
        a = augment_scan(scan, seed=9, config=cfg)
        b = augment_scan(scan, seed=9, config=cfg)
        np.testing.assert_array_equal(a.xyz, b.xyz)
        assert len(a) < len(scan)
        assert len(a.labels) == len(a)

    def test_multiset_of_labels_preserved_without_drop(self):
        scan = random_scan(np.random.default_rng(5), n=300)
        cfg = AugmentConfig(prob_drop=0.0)
        for seed in range(5):
            out = augment_scan(scan, seed=seed, config=cfg)
            np.testing.assert_array_equal(np.sort(out.labels), np.sort(scan.labels))


class TestClassFrequencies:
    def one_scan(self, labels):
        n = len(labels)
        return LidarScan(
            xyz=np.ones((n, 3), dtype=np.float32),
            intensity=np.zeros(n, dtype=np.float32),
            labels=np.asarray(labels, dtype=np.int32),
        )

    def test_inverse_sqrt_counts(self):
        cw = compute_class_frequencies([self.one_scan([0, 1, 1, 1, 1])], 2)
        np.testing.assert_array_equal(cw.frequencies, [1, 4])
        np.testing.assert_allclose(cw.weights, [1.0, 0.5])

    def test_equal_counts_equal_weights(self):
        cw = compute_class_frequencies([self.one_scan([0] * 9 + [1] * 9)], 2)
        np.testing.assert_allclose(cw.weights, [1 / 3, 1 / 3])

    def test_absent_class_weight_zero(self):
        cw = compute_class_frequencies([self.one_scan([1])], 2)
        assert cw.weights[0] == 0.0
        assert cw.weights[1] == 1.0  # f = 1 for the only class

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        scans = [self.one_scan(rng.integers(0, 3, 50)) for _ in range(4)]
        a = compute_class_frequencies(scans, 3)
        b = compute_class_frequencies(scans[::-1], 3)
        np.testing.assert_array_equal(a.frequencies, b.frequencies)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_unlabeled_scan_rejected(self):
        scan = LidarScan(xyz=np.ones((1, 3), dtype=np.float32), intensity=np.zeros(1, dtype=np.float32))
        with pytest.raises(MissingLabelsError):
            compute_class_frequencies([scan], 2)
