import struct

import numpy as np
import pytest

from spellvec.archive import ArchiveError, load_archive, save_archive


@pytest.fixture
def tensors():
    rng = np.random.default_rng(1)
    return {
        "w": rng.normal(size=(3, 4)),
        "b": rng.normal(size=3),
        "s": np.array(2.5),
    }


def test_round_trip_bit_exact(tmp_path, tensors):
    path = str(tmp_path / "m.svm")
    save_archive(path, "mimick", {"seed": 1, "chars": ["a", "b"]}, tensors)
    manifest, loaded = load_archive(path, expect_kind="mimick")
    assert manifest["meta"] == {"seed": 1, "chars": ["a", "b"]}
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert np.array_equal(loaded[name], tensors[name])
        assert loaded[name].shape == tensors[name].shape


def test_identical_models_serialize_identically(tmp_path, tensors):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    save_archive(a, "mimick", {"seed": 1}, tensors)
    save_archive(b, "mimick", {"seed": 1}, tensors)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_truncated_archive_rejected(tmp_path, tensors):
    path = str(tmp_path / "m.svm")
    save_archive(path, "mimick", {}, tensors)
    data = (tmp_path / "m.svm").read_bytes()
    (tmp_path / "cut.svm").write_bytes(data[:-5])
    with pytest.raises(ArchiveError, match="truncated"):
        load_archive(str(tmp_path / "cut.svm"))


def test_wrong_kind_rejected(tmp_path, tensors):
    path = str(tmp_path / "m.svm")
    save_archive(path, "tagger", {}, tensors)
    with pytest.raises(ArchiveError, match="kind"):
        load_archive(path, expect_kind="mimick")


def test_not_an_archive(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"hello world, this is not an archive")
    with pytest.raises(ArchiveError, match="not a model archive"):
        load_archive(str(path))


def test_trailing_bytes_rejected(tmp_path, tensors):
    path = str(tmp_path / "m.svm")
    save_archive(path, "mimick", {}, tensors)
    data = (tmp_path / "m.svm").read_bytes()
    (tmp_path / "pad.svm").write_bytes(data + b"\x00" * 8)
    with pytest.raises(ArchiveError, match="trailing"):
        load_archive(str(tmp_path / "pad.svm"))


def test_negative_shape_rejected(tmp_path):
    # a negative dimension would make the read count -1, "the rest of the file"
    path = str(tmp_path / "neg.svm")
    save_archive(path, "mimick", {}, {"a": np.zeros((2, 3)), "b": np.ones(1)})
    data = (tmp_path / "neg.svm").read_bytes()
    (size,) = struct.unpack_from("<Q", data, 8)
    manifest = data[16 : 16 + size].replace(b'"shape":[1]', b'"shape":[-1]')
    payload = data[16 + size :]
    (tmp_path / "neg.svm").write_bytes(data[:8] + struct.pack("<Q", len(manifest)) + manifest + payload)
    with pytest.raises(ArchiveError, match="negative shape"):
        load_archive(path)


def test_empty_tensor_at_the_end_loads(tmp_path):
    path = str(tmp_path / "m.svm")
    tensors = {"w": np.arange(6.0).reshape(2, 3), "rows": np.zeros((0, 3))}
    save_archive(path, "tagger", {}, tensors)
    _, loaded = load_archive(path)
    assert np.array_equal(loaded["w"], tensors["w"])
    assert loaded["rows"].shape == (0, 3)
    loaded["w"][0, 0] = 7.0  # a private, writable copy
