"""Round-trip tests for the PGM and FMAP raster containers and the pose
record codec."""

import json

import numpy as np
import pytest

from artipose.camera import Pose, random_rotation
from artipose.errors import ParseError
from artipose.formats import (
    decode_pose,
    encode_pose,
    read_fmap,
    read_mask_pgm,
    write_fmap,
    write_mask_pgm,
)
from artipose.raster import MaskImage


class TestPoseCodec:
    def test_encode_layout(self):
        pose = Pose(R=np.eye(3)[[1, 2, 0]], t=np.array([0.01, -0.02, 0.9]))
        rec = encode_pose(pose)
        assert rec["R"] == [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        assert rec["t_mm"] == [10.0, -20.0, 900.0]

    def test_decode_then_encode_gives_the_same_bytes(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            pose = Pose(R=random_rotation(rng), t=rng.uniform([-0.3, -0.3, 0.5], [0.3, 0.3, 1.2]))
            text = json.dumps(encode_pose(pose))
            again = decode_pose(json.loads(text))
            np.testing.assert_array_equal(again.R, pose.R)
            assert np.abs(again.t - pose.t).max() < 1e-15
            assert json.dumps(encode_pose(again)) == text

    @pytest.mark.parametrize("scale", [1.001, -1.0])
    def test_rejects_matrices_that_are_not_rotations(self, scale):
        rec = encode_pose(Pose(R=np.eye(3), t=np.array([0.0, 0.0, 1.0])))
        rec["R"] = [scale * v for v in rec["R"]]
        with pytest.raises(ParseError, match="not a rotation"):
            decode_pose(rec)

    def test_malformed_fields_raise_value_errors(self):
        with pytest.raises(ValueError):
            decode_pose({"R": [1.0] * 8, "t_mm": [0.0, 0.0, 1.0]})
        with pytest.raises(KeyError):
            decode_pose({"R": [1.0] * 9})


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = MaskImage.from_array(rng.random((33, 41)) > 0.5)
        path = tmp_path / "m.pgm"
        write_mask_pgm(mask, path)
        again = read_mask_pgm(path)
        assert (again.width, again.height) == (41, 33)
        np.testing.assert_array_equal(again.data, mask.data)

    @pytest.mark.parametrize("kind", ["random", "blob", "empty", "full"])
    def test_read_then_write_gives_the_same_bytes(self, tmp_path, kind):
        # a read mask keeps only the window of its set pixels; writing it
        # back restores the whole image
        rng = np.random.default_rng(11)
        data = np.zeros((30, 40), dtype=np.uint8)
        if kind == "random":
            data = (rng.random((30, 40)) > 0.7).astype(np.uint8)
        elif kind == "blob":
            data[7:19, 22:31] = 1
        elif kind == "full":
            data[:] = 1
        first, second = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_mask_pgm(MaskImage.from_array(data), first)
        mask = read_mask_pgm(first)
        if kind == "blob":
            assert mask.window == (22, 7, 31, 19)
        write_mask_pgm(mask, second)
        assert second.read_bytes() == first.read_bytes()
        np.testing.assert_array_equal(mask.full(), data)

    def test_byte_stability(self, tmp_path):
        mask = MaskImage.from_array(np.eye(8, dtype=np.uint8))
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_mask_pgm(mask, a)
        write_mask_pgm(mask, b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        mask = MaskImage.from_array(np.ones((2, 3), dtype=np.uint8))
        path = tmp_path / "m.pgm"
        write_mask_pgm(mask, path)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\xff" * 6

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(ParseError, match="binary PGM"):
            read_mask_pgm(path)

    @pytest.mark.parametrize("value", range(1, 255))
    def test_rejects_gray_values(self, tmp_path, value):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, value]))
        with pytest.raises(ParseError, match="0 or 255"):
            read_mask_pgm(path)

    @pytest.mark.parametrize("value", [1, 128, 254])
    def test_rejects_gray_last_byte_of_a_frame(self, tmp_path, value):
        payload = np.full(640 * 480, 255, dtype=np.uint8)
        payload[:-1:2] = 0
        payload[-1] = value
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n640 480\n255\n" + payload.tobytes())
        with pytest.raises(ParseError, match="0 or 255"):
            read_mask_pgm(path)

    def test_all_zero_frame(self, tmp_path):
        path = tmp_path / "zero.pgm"
        path.write_bytes(b"P5\n640 480\n255\n" + bytes(640 * 480))
        mask = read_mask_pgm(path)
        assert (mask.width, mask.height) == (640, 480)
        assert mask.data.shape == (0, 0) and mask.window == (0, 0, 0, 0)
        assert mask.bbox() is None and mask.pixel_count() == 0

    def test_window_at_the_frame_corners(self, tmp_path):
        # set pixels in the first and last row and column give the frame
        data = np.zeros((480, 640), dtype=np.uint8)
        data[0, 5] = data[479, 7] = data[9, 0] = data[11, 639] = 1
        path = tmp_path / "m.pgm"
        write_mask_pgm(MaskImage.from_array(data), path)
        mask = read_mask_pgm(path)
        assert mask.window == (0, 0, 640, 480)
        np.testing.assert_array_equal(mask.data, data)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\0" * 7)
        with pytest.raises(ParseError, match="payload"):
            read_mask_pgm(path)


class TestFmap:
    def test_round_trip_three_channels(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.random((17, 23, 3)).astype(np.float32)
        path = tmp_path / "d.fmap"
        write_fmap(data, path)
        np.testing.assert_array_equal(read_fmap(path), data)

    def test_two_dim_input_gains_channel(self, tmp_path):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        path = tmp_path / "d.fmap"
        write_fmap(data, path)
        out = read_fmap(path)
        assert out.shape == (3, 4, 1)
        np.testing.assert_array_equal(out[:, :, 0], data)

    def test_header_layout(self, tmp_path):
        data = np.zeros((1, 2, 1), dtype=np.float32)
        path = tmp_path / "d.fmap"
        write_fmap(data, path)
        blob = path.read_bytes()
        assert blob[:4] == b"FMAP"
        assert blob[4:16] == (2).to_bytes(4, "little") + (1).to_bytes(4, "little") + (
            1
        ).to_bytes(4, "little")
        assert len(blob) == 16 + 8

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.fmap"
        path.write_bytes(b"XMAP" + b"\0" * 12)
        with pytest.raises(ParseError, match="magic"):
            read_fmap(path)

    def test_rejects_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.fmap"
        import struct

        path.write_bytes(b"FMAP" + struct.pack("<III", 4, 4, 1) + b"\0" * 10)
        with pytest.raises(ParseError, match="size mismatch"):
            read_fmap(path)
