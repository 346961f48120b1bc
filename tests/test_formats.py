"""Round-trip tests for the PGM and FMAP raster containers."""

import numpy as np
import pytest

from artipose.errors import ParseError
from artipose.formats import read_fmap, read_mask_pgm, write_fmap, write_mask_pgm
from artipose.raster import MaskImage


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = MaskImage.from_array(rng.random((33, 41)) > 0.5)
        path = tmp_path / "m.pgm"
        write_mask_pgm(mask, path)
        again = read_mask_pgm(path)
        assert (again.width, again.height) == (41, 33)
        np.testing.assert_array_equal(again.data, mask.data)

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

    @pytest.mark.parametrize("value", [1, 128, 254])
    def test_rejects_gray_values(self, tmp_path, value):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, value]))
        with pytest.raises(ParseError, match="0 or 255"):
            read_mask_pgm(path)

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
