import json

import numpy as np

from flowfilt.integrate import ParticlePath
from flowfilt.io import write_json, write_path_csv


def test_path_csv_round_trips_floats(tmp_path):
    nodes = np.array([0.0, 1.0 / 3.0, 1.0])
    states = np.array([[0.1], [1e-17], [123456.789012345678]])
    out = tmp_path / "path.csv"
    write_path_csv(out, ParticlePath(nodes=nodes, states=states))

    text = out.read_text()
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "lambda,x_0"
    for line, lam, state in zip(lines[1:], nodes, states):
        lam_str, x_str = line.split(",")
        assert float(lam_str) == lam
        assert float(x_str) == state[0]


def test_write_json_is_deterministic_and_plain(tmp_path):
    payload = {
        "b": np.float64(0.25),
        "a": np.array([[1, 2], [3, 4]], dtype=np.int64),
        "flag": np.bool_(True),
    }
    write_json(tmp_path / "one.json", payload)
    write_json(tmp_path / "two.json", dict(reversed(payload.items())))
    blob = (tmp_path / "one.json").read_bytes()
    assert blob == (tmp_path / "two.json").read_bytes()

    loaded = json.loads(blob)
    assert loaded == {"a": [[1, 2], [3, 4]], "b": 0.25, "flag": True}
    assert list(loaded) == ["a", "b", "flag"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    write_json(tmp_path / "x.json", {"slope": float("nan"), "w": np.float64(-np.inf),
                                     "v": np.array([1.0, np.inf])})
    loaded = json.loads((tmp_path / "x.json").read_text(),
                        parse_constant=_reject_constant)
    assert loaded == {"slope": None, "v": [1.0, None], "w": None}
