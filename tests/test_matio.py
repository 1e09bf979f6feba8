import json

import numpy as np
import pytest

from energy_attention.matio import dumps_matrix, load_matrix, save_matrix


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 4)) * np.exp(rng.normal(size=(3, 4)) * 5)
    path = tmp_path / "m.json"
    save_matrix(path, "M", m)
    name, back = load_matrix(path)
    assert name == "M"
    assert np.array_equal(back, m)


def test_serialization_is_deterministic():
    m = np.array([[0.1, 1.0 / 3.0], [-2.5e-300, 7.0]])
    assert dumps_matrix("M", m) == dumps_matrix("M", m)


def test_payload_is_plain_json(tmp_path):
    m = np.array([[1.5, -3.0]])
    path = tmp_path / "m.json"
    save_matrix(path, "W_q", m)
    obj = json.loads(path.read_text())
    assert obj == {"name": "W_q", "rows": 1, "cols": 2, "data": [1.5, -3.0]}


def test_length_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "X", "rows": 2, "cols": 2, "data": [1.0, 2.0]}')
    with pytest.raises(ValueError):
        load_matrix(path)


def test_unexpected_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "X", "rows": 1, "cols": 1, "data": [1.0], "extra": 1}')
    with pytest.raises(ValueError):
        load_matrix(path)


def test_nonfinite_entries_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "X", "rows": 1, "cols": 2, "data": [1.0, 1e999]}')
    with pytest.raises(ValueError):
        load_matrix(path)


@pytest.mark.parametrize(
    "body",
    [
        '[["a"]]',
        '{"name": "X", "rows": 1, "cols": 1, "data": {"a": 1}}',
        '{"name": "X", "rows": true, "cols": 1, "data": [1.0]}',
        '{"name": "X", "rows": 1, "cols": 1, "data": [{}]}',
        '{"name": "X", "rows": 1, "cols": 1, "data": ["a"]}',
    ],
)
def test_malformed_file_rejected(tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_matrix(path)
