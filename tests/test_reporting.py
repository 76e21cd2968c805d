import json

import numpy as np
import pytest

from shadowgeom.reporting import (
    Precondition,
    ResidualEntry,
    _atomic_write,
    build_report,
    canonical_json,
    combine_side,
    csv_text,
    obj_text,
)


def entry(value, label="r"):
    return ResidualEntry(label, value, tol=1e-8, floor=1e-3)


def test_entry_statuses():
    assert entry(1e-9).status == "small"
    assert entry(1e-8).status == "small"
    assert entry(0.5).status == "large"
    assert entry(1e-5).status == "ambiguous"


def test_entry_rejects_inverted_thresholds():
    with pytest.raises(ValueError):
        ResidualEntry("bad", 0.0, tol=1e-2, floor=1e-8)


def test_combine_side():
    assert combine_side([entry(0.0), entry(1e-9)]) == "small"
    assert combine_side([entry(0.0), entry(0.7)]) == "large"
    assert combine_side([entry(1e-5)]) == "ambiguous"
    with pytest.raises(ValueError):
        combine_side([])


@pytest.mark.parametrize(
    "hyp,con,verdict",
    [
        (0.0, 0.0, "confirmed"),
        (0.5, 0.9, "confirmed"),
        (0.0, 0.9, "counterexample-flag"),
        (0.5, 0.0, "counterexample-flag"),
        (1e-5, 0.0, "hypotheses-not-met"),
        (0.0, 1e-5, "hypotheses-not-met"),
    ],
)
def test_verdict_matrix(hyp, con, verdict):
    rep = build_report("t", "s", hypotheses=[entry(hyp, "h")], conclusions=[entry(con, "c")])
    assert rep.verdict == verdict


def test_failed_precondition_short_circuits():
    rep = build_report(
        "t", "s",
        hypotheses=[entry(0.0, "h")],
        conclusions=[entry(0.0, "c")],
        preconditions=[Precondition("gate", ok=False, value=0.0, threshold=1.0)],
    )
    assert rep.verdict == "hypotheses-not-met"


def test_report_as_dict_roundtrips_to_json():
    rep = build_report(
        "t", "s",
        hypotheses=[entry(0.0, "h")],
        conclusions=[entry(0.7, "c")],
        details={"witness": np.array([1.0, 2.0]), "count": np.int64(3)},
    )
    text = canonical_json(rep)
    data = json.loads(text)
    assert data["verdict"] == "counterexample-flag"
    assert data["details"]["witness"] == [1.0, 2.0]
    assert data["details"]["count"] == 3


def test_canonical_json_is_stable_and_exact():
    obj = {"b": 0.1, "a": -0.0, "n": np.float64(2.0) / 3.0, "arr": np.arange(3)}
    t1 = canonical_json(obj)
    t2 = canonical_json(obj)
    assert t1 == t2
    assert t1.endswith("\n")
    data = json.loads(t1)
    assert data["b"] == 0.1
    assert data["n"] == 2.0 / 3.0
    # negative zero is normalized so semantically equal payloads match bytewise
    assert canonical_json(-0.0) == canonical_json(0.0)
    # keys sorted
    assert t1.index('"a"') < t1.index('"arr"') < t1.index('"b"')


def test_canonical_json_writes_non_finite_floats_as_null():
    obj = {"nan": float("nan"), "inf": np.float64(np.inf), "low": np.float32(-np.inf),
           "arr": np.array([1.0, np.nan]), "entry": entry(float("nan"))}
    data = json.loads(canonical_json(obj), parse_constant=pytest.fail)
    assert data["nan"] is data["inf"] is data["low"] is None
    assert data["arr"] == [1.0, None]
    assert data["entry"]["value"] is None and data["entry"]["status"] == "ambiguous"


def test_write_report_atomic(tmp_path):
    path = tmp_path / "out" / "report.json"
    path.parent.mkdir()
    text = canonical_json({"x": 1.5})
    _atomic_write(path, text)
    assert path.read_text() == text
    assert json.loads(text) == {"x": 1.5}
    leftovers = [p for p in path.parent.iterdir() if p.name != "report.json"]
    assert leftovers == []


def test_write_csv(tmp_path):
    path = tmp_path / "pts.csv"
    _atomic_write(path, csv_text(["u", "x"], [[0.5, 1.0], [2.0 / 3.0, -1.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "u,x"
    assert lines[1] == "0.5,1.0"
    assert repr(2.0 / 3.0) in lines[2]


def test_write_obj(tmp_path):
    path = tmp_path / "set.obj"
    verts = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    _atomic_write(path, obj_text(verts, [(0, 1, 2, 0)]))
    lines = path.read_text().splitlines()
    assert lines[0] == "v 0.0 1.0 0.0"  # 2d points padded with z = 0
    assert lines[-1] == "l 1 2 3 1"     # obj indices are 1-based
