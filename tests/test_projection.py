"""Spherical projection: hand-checked pixels, collisions, and round trips."""

import math

import numpy as np
import pytest

from rangeseg.errors import DimensionError, InvalidPointError, ProjectionError
from rangeseg.pointcloud import LidarScan, default_scene_spec, generate_synthetic_scene
from rangeseg.projection import (
    RANGE_SENTINEL,
    ProjectionConfig,
    back_project,
    build_range_image,
    project_point,
    project_points,
)


def make_scan(xyz, intensity=None, labels=None) -> LidarScan:
    xyz = np.asarray(xyz, dtype=np.float32)
    n = len(xyz)
    if intensity is None:
        intensity = np.full(n, 0.5, dtype=np.float32)
    if labels is None:
        labels = np.zeros(n, dtype=np.int32)
    return LidarScan(xyz=xyz, intensity=np.asarray(intensity, dtype=np.float32),
                     labels=np.asarray(labels, dtype=np.int32))


def brute_force_image(scan: LidarScan, cfg: ProjectionConfig):
    """Reference projection: per-point loop, nearest point keeps the pixel."""
    best_r = np.full((cfg.h, cfg.w), np.inf)
    best_i = np.full((cfg.h, cfg.w), -1, dtype=np.int64)
    for i, (x, y, z) in enumerate(scan.xyz.astype(np.float64)):
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0.0:
            continue
        u, v = project_point(x, y, z, cfg)
        if r < best_r[v, u]:
            best_r[v, u] = r
            best_i[v, u] = i
    return best_r, best_i


class TestSinglePoint:
    CFG = ProjectionConfig(w=2048, h=64)

    def test_forward_axis_pixel(self):
        # (10, 0, 0): yaw 0 -> u = w/2; pitch 0 -> v = 64 * 3/28 = 6.857 -> 6
        assert project_point(10.0, 0.0, 0.0, self.CFG) == (1024, 6)

    def test_left_axis_pixel(self):
        # yaw pi/2 maps a quarter turn left of center
        assert project_point(0.0, 10.0, 0.0, self.CFG) == (512, 6)

    def test_fov_upper_edge(self):
        z = 10.0 * math.tan(math.radians(3.0))
        u, v = project_point(10.0, 0.0, z, self.CFG)
        assert v == 0

    def test_fov_lower_edge_clamps_to_last_row(self):
        # pitch exactly fov_down gives v = h, one past the end
        z = 10.0 * math.tan(math.radians(-25.0))
        u, v = project_point(10.0, 0.0, z, self.CFG)
        assert v == 63

    def test_below_fov_clamps(self):
        _, v = project_point(1.0, 0.0, -5.0, self.CFG)
        assert v == 63

    def test_above_fov_clamps(self):
        _, v = project_point(1.0, 0.0, 5.0, self.CFG)
        assert v == 0

    def test_zero_range_rejected(self):
        with pytest.raises(InvalidPointError):
            project_point(0.0, 0.0, 0.0, self.CFG)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidPointError):
            project_point(float("nan"), 0.0, 0.0, self.CFG)


class TestVectorizedAgreement:
    def test_matches_scalar_on_random_points(self):
        rng = np.random.default_rng(0)
        cfg = ProjectionConfig(w=512, h=64)
        xyz = rng.uniform(-40, 40, size=(2000, 3))
        xyz[:, 2] = rng.uniform(-8, 3, size=2000)
        u, v, r = project_points(xyz, cfg)
        for i in range(len(xyz)):
            assert (u[i], v[i]) == project_point(*xyz[i], cfg)

    def test_all_pixels_in_bounds(self):
        rng = np.random.default_rng(1)
        cfg = ProjectionConfig()
        xyz = rng.normal(scale=30.0, size=(100_000, 3))
        u, v, _ = project_points(xyz, cfg)
        assert u.min() >= 0 and u.max() < cfg.w
        assert v.min() >= 0 and v.max() < cfg.h

    def test_zero_range_marked(self):
        u, v, r = project_points(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                                 ProjectionConfig(w=32, h=8))
        assert u[0] == -1 and v[0] == -1
        assert u[1] >= 0


class TestCollisions:
    def test_nearest_point_wins(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[10.0, 0.0, 0.0], [5.0, 0.0, 0.0]], intensity=[0.1, 0.9])
        img = build_range_image(scan, cfg)
        u, v = project_point(5.0, 0.0, 0.0, cfg)
        assert img.range_channel()[v, u] == pytest.approx(5.0)
        assert img.channels[3, v, u] == pytest.approx(0.9)
        assert img.point_of_pixel[v, u] == 1

    def test_range_tie_keeps_lower_index(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[7.0, 0.0, 0.0], [7.0, 0.0, 0.0]])
        img = build_range_image(scan, cfg)
        u, v = project_point(7.0, 0.0, 0.0, cfg)
        assert img.point_of_pixel[v, u] == 0

    def test_matches_brute_force_on_synthetic_scene(self):
        cfg = ProjectionConfig(w=128, h=16)
        scan = generate_synthetic_scene(seed=5, spec=default_scene_spec(5))
        img = build_range_image(scan, cfg)
        ref_r, ref_i = brute_force_image(scan, cfg)
        assert np.array_equal(img.valid, ref_i >= 0)
        assert np.array_equal(img.point_of_pixel, ref_i)
        np.testing.assert_allclose(
            img.range_channel()[img.valid], ref_r[ref_i >= 0], rtol=1e-6)

    def test_empty_pixels_hold_sentinel(self):
        cfg = ProjectionConfig(w=64, h=16)
        img = build_range_image(make_scan([[5.0, 0.0, 0.0]]), cfg)
        assert img.valid.sum() == 1
        assert (img.range_channel()[~img.valid] == RANGE_SENTINEL).all()
        assert (img.channels[:4][:, ~img.valid] == 0).all()


class TestRangeImageContents:
    def test_channel_consistency(self):
        cfg = ProjectionConfig(w=256, h=32)
        scan = generate_synthetic_scene(seed=2, spec=default_scene_spec(2))
        img = build_range_image(scan, cfg)
        x, y, z = (img.channels[i][img.valid] for i in range(3))
        np.testing.assert_allclose(
            img.range_channel()[img.valid], np.sqrt(x * x + y * y + z * z), rtol=1e-5)

    def test_winner_coordinates_match_points(self):
        cfg = ProjectionConfig(w=256, h=32)
        scan = generate_synthetic_scene(seed=9, spec=default_scene_spec(9))
        img = build_range_image(scan, cfg)
        winners = img.point_of_pixel[img.valid]
        np.testing.assert_array_equal(img.channels[0][img.valid], scan.xyz[winners, 0])
        np.testing.assert_array_equal(img.channels[3][img.valid], scan.intensity[winners])

    def test_zero_range_point_keeps_slot(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        img = build_range_image(scan, cfg)
        assert img.num_points == 2
        assert tuple(img.pixel_of_point[1]) == (-1, -1)

    def test_empty_scan_rejected(self):
        empty = make_scan(np.zeros((0, 3), dtype=np.float32))
        with pytest.raises(ProjectionError):
            build_range_image(empty, ProjectionConfig(w=32, h=8))

    def test_all_degenerate_rejected(self):
        with pytest.raises(ProjectionError):
            build_range_image(make_scan([[0.0, 0.0, 0.0]]), ProjectionConfig(w=32, h=8))


class TestLabelImage:
    def test_fill_and_winner_labels(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[10.0, 0.0, 0.0], [5.0, 0.0, 0.0]], labels=[3, 1])
        img = build_range_image(scan, cfg)
        li = img.label_image(scan.labels, fill=-1)
        u, v = project_point(5.0, 0.0, 0.0, cfg)
        assert li[v, u] == 1
        assert (li[~img.valid] == -1).all()

    def test_wrong_length_rejected(self):
        cfg = ProjectionConfig(w=32, h=8)
        img = build_range_image(make_scan([[5.0, 0.0, 0.0]]), cfg)
        with pytest.raises(DimensionError):
            img.label_image(np.zeros(7, dtype=np.int32))


class TestBackProject:
    def test_identity_on_winning_points(self):
        cfg = ProjectionConfig(w=256, h=32)
        scan = generate_synthetic_scene(seed=4, spec=default_scene_spec(4))
        img = build_range_image(scan, cfg)
        li = img.label_image(scan.labels, fill=0)
        recovered = back_project(li, img)
        winners = img.point_of_pixel[img.valid]
        np.testing.assert_array_equal(recovered[winners], scan.labels[winners])

    def test_occluded_points_take_pixel_label(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[10.0, 0.0, 0.0], [5.0, 0.0, 0.0]], labels=[3, 1])
        img = build_range_image(scan, cfg)
        out = back_project(img.label_image(scan.labels, fill=0), img)
        # the far point sits behind the near one and inherits its label
        assert out.tolist() == [1, 1]

    def test_skipped_points_get_fill(self):
        cfg = ProjectionConfig(w=32, h=8)
        scan = make_scan([[4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        img = build_range_image(scan, cfg)
        out = back_project(np.full((8, 32), 2, dtype=np.int32), img, fill=-9)
        assert out[1] == -9 and out[0] == 2

    def test_shape_mismatch_rejected(self):
        cfg = ProjectionConfig(w=32, h=8)
        img = build_range_image(make_scan([[5.0, 0.0, 0.0]]), cfg)
        with pytest.raises(DimensionError):
            back_project(np.zeros((4, 4), dtype=np.int32), img)


class TestConfigValidation:
    def test_bad_extents(self):
        with pytest.raises(ProjectionError):
            ProjectionConfig(w=0, h=64)

    def test_bad_fov_signs(self):
        with pytest.raises(ProjectionError):
            ProjectionConfig(fov_up=-0.1, fov_down=-0.4)
        with pytest.raises(ProjectionError):
            ProjectionConfig(fov_up=0.1, fov_down=0.2)
        for bad in (math.nan, math.inf, -math.inf):  # not finite: NaN fails every sign test
            with pytest.raises(ProjectionError):
                ProjectionConfig(fov_up=bad)
            with pytest.raises(ProjectionError):
                ProjectionConfig(fov_down=bad)
