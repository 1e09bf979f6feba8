import json

import numpy as np
import pytest

from energy_attention.energy import ShapeError
from energy_attention.matio import _as_matrix, dumps_matrix, load_matrix, save_matrix


class TestAsMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            _as_matrix([1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _as_matrix([[1.0, np.nan]])

    def test_copies_input(self):
        src = np.ones((2, 2))
        m = _as_matrix(src)
        m[0, 0] = 5.0
        assert src[0, 0] == 1.0


def test_empty_matrix_is_refused_before_the_file_is_written(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ShapeError, match=r"^X must have positive dimensions, got \(0, 3\)$"):
        save_matrix(path, "X", np.zeros((0, 3)))
    assert not path.exists()


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 4)) * np.exp(rng.normal(size=(3, 4)) * 5)
    path = tmp_path / "m.json"
    save_matrix(path, "M", m)
    name, back = load_matrix(path)
    assert name == "M"
    assert np.array_equal(back, m)


def test_negative_zero_round_trips(tmp_path):
    m = np.array([[-0.0, 0.0, 1.0]])
    path = tmp_path / "m.json"
    save_matrix(path, "M", m)
    assert '"data": [-0, 0, 1]' in path.read_text()
    _, back = load_matrix(path)
    assert np.array_equal(np.signbit(back), np.signbit(m))
    assert back.dtype == np.float64


EDGE_VALUES = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1.0, 0.1, 1e16, -123456.789,
]


@pytest.mark.parametrize(
    "m",
    [np.array([EDGE_VALUES]), np.array(EDGE_VALUES).reshape(4, 2)]
    + [np.array([[x]]) for x in EDGE_VALUES],
    ids=lambda m: "x".join(map(str, m.shape)) + ("" if m.size > 1 else f"-{float(m[0, 0])!r}"),
)
def test_dumps_matches_per_entry_format_and_round_trips(tmp_path, m):
    # the one %-format over the matrix writes the bytes of a per-entry join
    values = ", ".join(format(x, ".17g") for x in m.ravel().tolist())
    expected = (
        f'{{"name": "M", "rows": {m.shape[0]}, "cols": {m.shape[1]}, "data": [{values}]}}\n'
    )
    assert dumps_matrix("M", m) == expected
    path = tmp_path / "m.json"
    save_matrix(path, "M", m)
    _, back = load_matrix(path)
    assert back.dtype == np.float64
    assert back.tobytes() == m.tobytes()


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
        '{"name": "X", "rows": 1, "cols": 1, "data": [100000000000000000000]}',
    ],
)
def test_malformed_file_rejected(tmp_path, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    with pytest.raises(ValueError):
        load_matrix(path)


def test_numbers_mixed_with_booleans_are_promoted(tmp_path):
    # the entries are judged by numpy's dtype for the whole list, so a
    # boolean among numbers is promoted rather than rejected
    path = tmp_path / "mixed.json"
    path.write_text('{"name": "X", "rows": 1, "cols": 3, "data": [1.5, true, 2]}')
    _, m = load_matrix(path)
    assert np.array_equal(m, [[1.5, 1.0, 2.0]])
