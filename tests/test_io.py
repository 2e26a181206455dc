import numpy as np
import pytest

from corrwalk.ensemble import run_realization
from corrwalk.errors import InvalidParameterError
from corrwalk.io import format_value, write_csv, write_json, write_series_csv, write_trajectory_csv


def test_format_value_round_trips_floats():
    for x in (0.1, 1 / 3, 1e-17, 123456.789, np.float64(2.5000000000000004)):
        assert float(format_value(x)) == float(x)


def test_format_value_kinds():
    assert format_value(3) == "3"
    assert format_value(np.int64(7)) == "7"
    assert format_value("abc") == "abc"


def test_write_csv_lf_and_header(tmp_path):
    path = write_csv(tmp_path / "x.csv", ("a", "b"), [(1, 0.5), (2, 0.25)])
    raw = path.read_bytes()
    assert raw == b"a,b\n1,0.5\n2,0.25\n"


def test_write_series_csv_one_based_index(tmp_path):
    path = write_series_csv(tmp_path / "t.csv", np.array([0.5, 1.5]), ("j", "V"))
    assert path.read_text() == "j,V\n1,0.5\n2,1.5\n"


def test_write_trajectory_csv_refuses_a_batch(tmp_path):
    batch = run_realization(64, 32, 4.0, 4.0, [1, 2, 3])
    with pytest.raises(InvalidParameterError, match=r"batch of shape \(3, 33\)"):
        write_trajectory_csv(tmp_path / "trajectory.csv", batch)
    assert not list(tmp_path.iterdir())


def _rows_failing_after_one():
    yield (1, 0.5)
    raise RuntimeError("rows ran out")


@pytest.mark.parametrize(
    "write, error",
    [
        (lambda path: write_csv(path, ("a", "b"), _rows_failing_after_one()), RuntimeError),
        (lambda path: write_json(path, {"a": 1, "b": object()}), TypeError),
    ],
    ids=["csv_rows_raise", "json_unserializable"],
)
def test_failed_write_keeps_previous_file(tmp_path, write, error):
    path = tmp_path / "out"
    path.write_bytes(b"previous\n")
    with pytest.raises(error):
        write(path)
    assert path.read_bytes() == b"previous\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_write_json_format(tmp_path):
    path = write_json(tmp_path / "sub" / "x.json", {"b": [1, 0.5], "a": None})
    assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1,\n    0.5\n  ]\n}\n'
