import json
import os

import numpy as np
import pytest

from lgadmm import (
    atomic_write_json,
    atomic_write_text,
    format_float,
    read_matrix,
    write_matrix,
)


def test_format_float_round_trips_exactly():
    values = [0.0, 1.0, -1.0, np.pi, 1.0 / 3.0, 1e-300, -1e300, 2.0**-52, 0.1]
    for x in values:
        assert float(format_float(x)) == x


def test_atomic_write_text_creates_and_overwrites(tmp_path):
    target = tmp_path / "note.txt"
    atomic_write_text(str(target), "first\n")
    assert target.read_text() == "first\n"
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"


def test_atomic_write_text_leaves_no_temp_files(tmp_path):
    target = tmp_path / "note.txt"
    atomic_write_text(str(target), "payload")
    assert sorted(os.listdir(tmp_path)) == ["note.txt"]
    # a failed write or rename removes its temporary file and re-raises its error
    with pytest.raises(TypeError):
        atomic_write_text(str(target), b"bytes")
    (tmp_path / "folder").mkdir()
    with pytest.raises(OSError):
        atomic_write_text(str(tmp_path / "folder"), "payload")
    assert sorted(os.listdir(tmp_path)) == ["folder", "note.txt"]
    assert target.read_text() == "payload"


def test_atomic_write_text_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    # reading the umask means setting it, which changes the mode of files
    # other threads create meanwhile; a write must not need it
    def umask(mask):
        raise AssertionError("atomic_write_text changed the process umask")

    with open(tmp_path / "plain.txt", "w"):
        pass
    monkeypatch.setattr(os, "umask", umask)
    target = tmp_path / "note.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert os.stat(target).st_mode == os.stat(tmp_path / "plain.txt").st_mode
    assert sorted(os.listdir(tmp_path)) == ["note.txt", "plain.txt"]


def test_atomic_write_text_creates_parent_directories(tmp_path):
    target = tmp_path / "a" / "b" / "note.txt"
    atomic_write_text(str(target), "deep")
    assert target.read_text() == "deep"


def test_atomic_write_json_round_trip_and_sorted_keys(tmp_path):
    target = tmp_path / "data.json"
    payload = {"zeta": 1, "alpha": [1, 2, 3], "mid": {"y": 2.5, "x": True}}
    atomic_write_json(str(target), payload)
    text = target.read_text()
    assert json.loads(text) == payload
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.endswith("\n")


def test_matrix_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((7, 3))
    matrix[0, 0] = 0.0
    matrix[1, 1] = 1e-300
    target = tmp_path / "m.txt"
    write_matrix(str(target), matrix)
    loaded = read_matrix(str(target))
    assert loaded.shape == matrix.shape
    assert np.array_equal(loaded, matrix)


def test_write_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        write_matrix(str(tmp_path / "v.txt"), np.zeros(4))


def test_read_matrix_rejects_header_body_mismatch(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix(str(target))


def test_read_matrix_rejects_malformed_header(tmp_path):
    target = tmp_path / "bad.txt"
    target.write_text("2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix(str(target))
