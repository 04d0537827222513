"""Core primitives: RNG determinism, phantoms, tensor and PGM containers."""

import math

import numpy as np
import pytest

from dealias.core import (
    DISK_TABLE,
    FormatError,
    SHEPP_LOGAN_ELLIPSES,
    SeededRng,
    generate_phantom,
    random_phantom,
    read_tensor,
    write_pgm,
    write_tensor,
)

# first five splitmix64 outputs for seed 1234567 (published reference stream)
SPLITMIX64_SEED_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


class TestSeededRng:
    def test_reference_stream(self):
        rng = SeededRng(1234567)
        assert [int(v) for v in rng.raw(5)] == SPLITMIX64_SEED_1234567

    def test_batch_equals_scalar_draws(self):
        batch = SeededRng(99).raw(64)
        one_at_a_time = [int(SeededRng(99).raw(k + 1)[-1]) for k in range(64)]
        assert [int(v) for v in batch] == one_at_a_time

    def test_equal_seeds_equal_streams(self):
        a, b = SeededRng(2024), SeededRng(2024)
        assert np.array_equal(a.raw(100_000), b.raw(100_000))

    def test_uniform_in_unit_interval(self):
        u = SeededRng(3).uniform(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normal_moments(self):
        z = SeededRng(4).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_shape_and_determinism(self):
        a = SeededRng(5).normal((7, 3))
        b = SeededRng(5).normal(21).reshape(7, 3)
        assert a.shape == (7, 3)
        assert np.array_equal(a, b)

    def test_integer_bounds_and_split(self):
        rng = SeededRng(6)
        draws = [rng.integer(10) for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) <= 9
        assert set(draws) == set(range(10))
        assert SeededRng(6).split(3).seed == SeededRng(9).seed

    def test_choice_distinct(self):
        picks = SeededRng(7).choice(50, 20)
        assert len(set(picks.tolist())) == 20
        assert all(0 <= p < 50 for p in picks)

    def test_choice_full_permutation(self):
        picks = SeededRng(8).choice(10, 10)
        assert sorted(picks.tolist()) == list(range(10))


class TestPhantoms:
    def test_shepp_logan_outside_skull_is_zero(self):
        img = generate_phantom("shepp-logan", 128)
        assert img[0, 0] == 0.0
        assert img[5, 64] == 0.0  # above the outer ellipse (b = 0.92)

    def test_shepp_logan_center_matches_analytic_membership(self):
        # independent oracle: evaluate ellipse membership at the pixel
        # center nearest the origin and sum intensities
        size = 128
        img = generate_phantom("shepp-logan", size)
        half = (size - 1) / 2.0
        cx = (64 - half) / half
        cy = (half - 64) / half
        expected = 0.0
        for val, a, b, x0, y0, tilt in SHEPP_LOGAN_ELLIPSES:
            t = math.radians(tilt)
            dx, dy = cx - x0, cy - y0
            u = (dx * math.cos(t) + dy * math.sin(t)) / a
            v = (-dx * math.sin(t) + dy * math.cos(t)) / b
            if u * u + v * v <= 1.0:
                expected += val
        assert img[64, 64] == pytest.approx(expected, abs=1e-15)

    def test_shepp_logan_range(self):
        img = generate_phantom("shepp-logan", 128)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_disks_deterministic(self):
        assert np.array_equal(
            generate_phantom("disks", 64), generate_phantom("disks", 64)
        )

    def test_disks_values_from_table(self):
        img = generate_phantom("disks", 256)
        values = set(np.unique(img).tolist())
        assert values <= {0.0} | {v for _, _, _, v in DISK_TABLE}

    def test_size_too_small(self):
        with pytest.raises(ValueError):
            generate_phantom("shepp-logan", 15)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_phantom("cube", 64)

    def test_random_phantom_deterministic_and_bounded(self):
        a = random_phantom(64, SeededRng(11))
        b = random_phantom(64, SeededRng(11))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert a.max() > 0.0  # at least one ellipse painted


class TestTensorIO:
    def test_roundtrip_zeros(self, tmp_path):
        path = tmp_path / "z.rdt"
        write_tensor(path, np.zeros((2, 3)))
        out = read_tensor(path)
        assert out.shape == (2, 3)
        assert np.all(out == 0.0)

    def test_roundtrip_float32_rounding(self, tmp_path):
        path = tmp_path / "t.rdt"
        write_tensor(path, np.full((1,), 1.0 / 3.0))
        assert abs(read_tensor(path)[0] - 1.0 / 3.0) < 1e-7

    def test_roundtrip_random_within_float32_ulp(self, tmp_path):
        rng = SeededRng(12)
        for shape in [(5,), (3, 4), (2, 3, 4)]:
            t = rng.normal(shape)
            path = tmp_path / "r.rdt"
            write_tensor(path, t)
            out = read_tensor(path)
            assert out.shape == t.shape
            assert np.array_equal(out, t.astype(np.float32).astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rdt"
        path.write_bytes(b"XXXX" + bytes([1]) + (2).to_bytes(4, "little") + b"\0" * 8)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "ok.rdt"
        write_tensor(path, np.ones((4, 4)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "ok.rdt"
        write_tensor(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_non_finite_rejected(self, tmp_path):
        # 1e39 is finite in float64 but overflows the float32 payload
        for values in (np.array([1.0, np.nan]), [[1e39, 1.0]]):
            path = tmp_path / "bad.rdt"
            with pytest.raises(ValueError):
                write_tensor(path, values)
            assert not path.exists()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "h.rdt"
        write_tensor(path, np.arange(6.0).reshape(2, 3))
        blob = path.read_bytes()
        assert blob[:4] == b"RDT1"
        assert blob[4] == 2
        assert int.from_bytes(blob[5:9], "little") == 2
        assert int.from_bytes(blob[9:13], "little") == 3
        assert len(blob) == 13 + 6 * 4


class TestPgm:
    def test_constant_image_maps_to_zero(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((4, 4), 0.7))
        blob = path.read_bytes()
        assert blob.endswith(b"\x00" * 16)

    def test_binary_endpoints(self, tmp_path):
        path = tmp_path / "b.pgm"
        write_pgm(path, np.array([[0.0, 1.0]]))
        assert path.read_bytes().endswith(bytes([0, 255]))

    def test_file_size_128_phantom(self, tmp_path):
        path = tmp_path / "p.pgm"
        write_pgm(path, generate_phantom("shepp-logan", 128))
        header = b"P5\n128 128\n255\n"
        assert len(path.read_bytes()) == len(header) + 128 * 128

    def test_whole_file_is_8_bit(self, tmp_path):
        path = tmp_path / "w.pgm"
        write_pgm(path, np.array([[0.0, 1.0]]))
        assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])

    def test_zero_area_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "e.pgm", np.zeros((0, 4)))
