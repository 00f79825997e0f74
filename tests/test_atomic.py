"""Tests for the one crash-safe whole-file write."""

import os

import pytest

from repro.atomic import atomic_write_text


def test_writes_exact_bytes(tmp_path):
    target = tmp_path / "state.json"
    text = '{"a":1,"é":[2.5]}\n'
    atomic_write_text(target, text)
    assert target.read_bytes() == text.encode("utf-8")


def test_accepts_str_path_and_replaces(tmp_path):
    target = tmp_path / "state.json"
    target.write_text("old\n", encoding="utf-8")
    atomic_write_text(str(target), "new\n")
    assert target.read_text(encoding="utf-8") == "new\n"


def test_leaves_no_temp_file(tmp_path):
    target = tmp_path / "state.json"
    atomic_write_text(target, "x\n")
    atomic_write_text(target, "y\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


@pytest.mark.parametrize("failing", ["replace", "fsync"])
def test_failure_keeps_previous_file(tmp_path, monkeypatch, failing):
    target = tmp_path / "state.json"
    target.write_text("previous\n", encoding="utf-8")

    def boom(*args, **kwargs):
        raise OSError(f"simulated {failing} failure")

    monkeypatch.setattr(os, failing, boom)
    with pytest.raises(OSError, match="simulated"):
        atomic_write_text(target, "next\n")
    monkeypatch.undo()
    assert target.read_text(encoding="utf-8") == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]


def test_missing_parent_directory_raises(tmp_path):
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "absent" / "state.json", "x\n")
