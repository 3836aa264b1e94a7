import os
import stat

import pytest

from spellvec.fileio import atomic_write_bytes, text_lines


def test_atomic_write_syncs_the_file_before_the_rename_and_the_directory_after(
    tmp_path, monkeypatch
):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("dir fsync",) if stat.S_ISDIR(info.st_mode) else ("file fsync", info.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "out.bin"
    atomic_write_bytes(str(path), b"payload")
    assert events == [("file fsync", 7), ("replace",), ("dir fsync",)]
    assert path.read_bytes() == b"payload"


def test_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def fail(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk gone"):
        atomic_write_bytes(str(path), b"new")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert path.read_bytes() == b"old"


def test_a_string_splits_into_lines_like_a_text_file(tmp_path):
    text = "a\x85b\u2028c\x0bd\x0c\x1ce\rf\r\ng\n\nh"
    (tmp_path / "t.txt").write_bytes(text.encode("utf-8"))
    with open(tmp_path / "t.txt", encoding="utf-8") as handle:
        from_file = list(text_lines(handle))
    assert list(text_lines(text)) == from_file == ["a\x85b\u2028c\x0bd\x0c\x1ce", "f", "g", "", "h"]
    assert list(text_lines("")) == [] and list(text_lines("x\n")) == ["x"]
