import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spellvec.archive import MAGIC, ArchiveError, load_archive, save_archive
from spellvec.conllu import AttributeSchema
from spellvec.embeddings import EmbeddingTable
from spellvec.mimick import CharVocabulary, MimickModel
from spellvec.tagger import TaggerModel, WordRepSpec


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


def test_saving_copies_no_tensor(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {f"t{i}": rng.normal(size=(256, 512)) for i in range(10)}  # 10.5 MB
    path = str(tmp_path / "big.svm")
    tracemalloc.start()
    try:
        save_archive(path, "mimick", {}, tensors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert (tmp_path / "big.svm").stat().st_size > 10 * 256 * 512 * 8


def test_tensors_of_any_layout_are_written_row_major_little_endian(tmp_path):
    tensors = {
        "transposed": np.arange(6.0).reshape(2, 3).T,
        "strided": np.arange(10.0)[::3],
        "big_endian": np.array([1.5, -2.0], dtype=">f8"),
        "ints": np.arange(4).reshape(2, 2),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "m.svm"
    save_archive(str(path), "mimick", {}, tensors)
    payload = b"".join(np.array(arr, dtype="<f8", order="C").tobytes() for arr in tensors.values())
    assert path.read_bytes().endswith(payload)
    _, loaded = load_archive(str(path))
    for name, arr in tensors.items():
        assert np.array_equal(loaded[name], arr) and loaded[name].shape == arr.shape, name


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


def write_raw_archive(path, manifest, payload=b""):
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    return str(path)


def test_tensor_larger_than_the_file_is_rejected_before_it_is_allocated(tmp_path):
    blob = b'{"format_version":1,"meta":{},"tensors":[{"name":"w","shape":[1099511627776]}]}'
    head = MAGIC + struct.pack("<Q", len(blob)) + blob
    (tmp_path / "big.svm").write_bytes(head + b"\0" * (100 - len(head)))
    path = str(tmp_path / "big.svm")
    with pytest.raises(ArchiveError, match=re.escape(f"{path}: truncated tensor 'w'")):
        load_archive(path)


def test_archive_read_from_a_pipe_loads_like_the_file(tmp_path, tensors):
    path = str(tmp_path / "m.svm")
    save_archive(path, "mimick", {"n": 1}, tensors)
    read_end, write_end = os.pipe()
    os.write(write_end, (tmp_path / "m.svm").read_bytes())
    os.close(write_end)
    try:
        piped = load_archive(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    manifest, loaded = load_archive(path)
    assert piped[0] == manifest
    assert {k: v.tobytes() for k, v in piped[1].items()} == {k: v.tobytes() for k, v in loaded.items()}


def manifest_with(**fields):
    return {"format_version": 1, "kind": "mimick", "meta": {}, "tensors": [], **fields}


@pytest.mark.parametrize(
    "manifest, message",
    [
        ({"format_version": 1, "kind": "mimick", "meta": {}}, "no tensor list"),
        ([1, "mimick"], "not a JSON object"),
        (manifest_with(meta=[]), "meta is not a JSON object"),
        (manifest_with(tensors=[{"name": "w", "shape": "ab"}]), "tensor entry"),
        (manifest_with(tensors=[7]), "tensor entry"),
        (manifest_with(tensors=[{"name": "w", "shape": [True]}]), "tensor entry"),
        (manifest_with(tensors=[{"shape": [1]}]), "tensor entry"),
        (manifest_with(tensors=[{"name": "w", "shape": [0, 2**70]}]), "tensor 'w'"),
    ],
    ids=["no-tensors", "list-manifest", "list-meta", "string-shape", "int-spec",
         "bool-dimension", "no-name", "zero-size-huge-dimension"],
)
def test_malformed_manifest_raises_archive_error(tmp_path, manifest, message):
    path = write_raw_archive(tmp_path / "bad.svm", manifest)
    with pytest.raises(ArchiveError, match=message):
        load_archive(path)


def test_a_tensor_named_twice_is_rejected(tmp_path):
    # the later payload would otherwise replace the earlier one
    manifest = manifest_with(tensors=[{"name": "a", "shape": [2]}, {"name": "a", "shape": [2]}])
    payload = np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes()
    path = write_raw_archive(tmp_path / "twice.svm", manifest, payload)
    with pytest.raises(ArchiveError, match=f"^{re.escape(path)}: duplicate tensor 'a'$"):
        load_archive(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_value_is_neither_written_nor_read(tmp_path, tensors, value):
    tensors["b"][1] = value
    path = str(tmp_path / "m.svm")
    message = f"^{re.escape(path)}: tensor 'b' holds a non-finite value$"
    with pytest.raises(ArchiveError, match=message):
        save_archive(path, "mimick", {}, tensors)
    assert not os.path.exists(path)
    specs = [{"name": name, "shape": list(arr.shape)} for name, arr in tensors.items()]
    payload = b"".join(arr.astype("<f8").tobytes() for arr in tensors.values())
    write_raw_archive(tmp_path / "m.svm", manifest_with(tensors=specs), payload)
    with pytest.raises(ArchiveError, match=message):
        load_archive(path)


def tiny_mimick():
    return MimickModel(CharVocabulary("ab"), dim=2, char_dim=2, hidden=2,
                       rng=np.random.default_rng(0))


def test_mimick_meta_without_a_key_names_file_and_key(tmp_path):
    path = tmp_path / "m.svm"
    tiny_mimick().save(str(path))
    manifest, tensors = load_archive(str(path))
    del manifest["meta"]["chars"]
    payload = b"".join(a.astype("<f8").tobytes() for a in tensors.values())
    write_raw_archive(path, manifest, payload)
    with pytest.raises(ArchiveError, match=re.escape(f"{path}: meta has no key 'chars'")):
        MimickModel.load(str(path))


def manifest_tensors(path):
    manifest, _ = load_archive(str(path))
    assert manifest["format_version"] == 1
    return [(t["name"], tuple(t["shape"])) for t in manifest["tensors"]]


def gate_blocks(prefix, rows, cols):
    """An LSTM cell's archive tensors: one weight and one bias row block per
    gate, in the order i, f, o, c."""
    return [
        (f"{prefix}w_i", (rows, cols)), (f"{prefix}b_i", (rows,)),
        (f"{prefix}w_f", (rows, cols)), (f"{prefix}b_f", (rows,)),
        (f"{prefix}w_o", (rows, cols)), (f"{prefix}b_o", (rows,)),
        (f"{prefix}w_c", (rows, cols)), (f"{prefix}b_c", (rows,)),
    ]


class TestManifest:
    """The tensor names, order and shapes that format version 1 writes: an
    LSTM cell as its eight gate row blocks."""

    def test_a_mimick_archive(self, tmp_path):
        path = tmp_path / "m.svm"
        MimickModel(CharVocabulary("ab"), dim=3, char_dim=2, hidden=1,
                    rng=np.random.default_rng(3)).save(str(path))
        assert manifest_tensors(path) == [
            ("char_emb", (3, 2)),
            ("fwd.w_i", (1, 3)), ("fwd.b_i", (1,)), ("fwd.w_f", (1, 3)), ("fwd.b_f", (1,)),
            ("fwd.w_o", (1, 3)), ("fwd.b_o", (1,)), ("fwd.w_c", (1, 3)), ("fwd.b_c", (1,)),
            ("bwd.w_i", (1, 3)), ("bwd.b_i", (1,)), ("bwd.w_f", (1, 3)), ("bwd.b_f", (1,)),
            ("bwd.w_o", (1, 3)), ("bwd.b_o", (1,)), ("bwd.w_c", (1, 3)), ("bwd.b_c", (1,)),
            ("t_h", (1, 2)), ("b_h", (1,)), ("o_t", (3, 1)), ("b_t", (3,)),
        ]

    def test_a_both_tagger_archive(self, tmp_path):
        rng = np.random.default_rng(3)
        mimick = MimickModel(CharVocabulary("ab"), dim=3, char_dim=2, hidden=1, rng=rng)
        table = EmbeddingTable(3, [("ab", rng.normal(size=3)), ("ba", rng.normal(size=3))],
                               unk=np.zeros(3))
        schema = AttributeSchema(["A", "B"], {"Case": ["Nom"]}, {"Case": 1.0})
        path = tmp_path / "t.svm"
        TaggerModel(schema, WordRepSpec("both", table, mimick), hidden=2, char_dim=3,
                    char_hidden=2, rng=rng, forms=["ab", "ba", "abb"]).save(str(path))
        # a sentence layer reads the vector (3) and char2tag's two states (2 + 2)
        assert manifest_tensors(path) == [
            ("rows", (3, 3)), ("base", (2, 3)), ("base_unk", (3,)),
            ("mimick.char_emb", (3, 2)),
            *gate_blocks("mimick.fwd.", 1, 3), *gate_blocks("mimick.bwd.", 1, 3),
            ("mimick.t_h", (1, 2)), ("mimick.b_h", (1,)),
            ("mimick.o_t", (3, 1)), ("mimick.b_t", (3,)),
            ("c2t.char_emb", (3, 3)),
            *gate_blocks("c2t.fwd.", 2, 5), *gate_blocks("c2t.bwd.", 2, 5),
            *gate_blocks("l1f.", 2, 9), *gate_blocks("l1b.", 2, 9),
            *gate_blocks("l2f.", 2, 6), *gate_blocks("l2b.", 2, 6),
            ("head.POS.w_h", (2, 4)), ("head.POS.b_h", (2,)),
            ("head.POS.o_w", (2, 2)), ("head.POS.b_w", (2,)),
            ("head.attr.Case.w_h", (2, 4)), ("head.attr.Case.b_h", (2,)),
            ("head.attr.Case.o_w", (2, 2)), ("head.attr.Case.b_w", (2,)),
        ]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "a.svm"


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_any_byte_string_loads_or_raises_archive_error(fuzz_path, data):
    # the raw bytes, and the same bytes as a manifest behind a valid header
    for blob in (data, MAGIC + struct.pack("<Q", len(data)) + data):
        fuzz_path.write_bytes(blob)
        try:
            load_archive(str(fuzz_path))
        except ArchiveError:
            pass


json_scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner),
    max_leaves=8,
)
tensor_spec = st.fixed_dictionaries(
    {"name": st.text(max_size=2), "shape": st.lists(st.integers(-1, 3), max_size=2)}
)
tensor_specs = st.lists(tensor_spec | json_values, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.fixed_dictionaries({
        "format_version": st.just(1),
        "kind": st.just("mimick"),
        "meta": st.dictionaries(st.text(max_size=5), json_values, max_size=3) | json_values,
        "tensors": tensor_specs | json_values,
    }),
    st.binary(max_size=64),
)
def test_any_json_manifest_loads_or_raises_archive_error(fuzz_path, manifest, payload):
    try:
        load_archive(write_raw_archive(fuzz_path, manifest, payload))
    except ArchiveError:
        pass


@pytest.fixture(scope="module")
def mimick_archive_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("valid") / "m.svm"
    tiny_mimick().save(str(path), extra_meta={"config": {"seed": 0}})
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_byte_corruption_loads_or_raises_archive_error(fuzz_path, mimick_archive_bytes, data):
    raw = bytearray(mimick_archive_bytes)
    where = data.draw(st.integers(0, len(raw) - 1), label="offset")
    raw[where] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[where]), label="byte")
    fuzz_path.write_bytes(bytes(raw))
    try:
        MimickModel.load(str(fuzz_path))
    except ArchiveError:
        pass
