import json

import pytest

from logpairs.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main

NODAL_PARAM = {
    "p0": [[[2, 1], "1"], [[0, 3], "-1"]],
    "p1": [[[3, 0], "1"], [[1, 2], "-1"]],
    "p2": [[[0, 3], "1"]],
    "target": {
        "n": 2,
        "terms": [[[0, 2, 1], "1"], [[3, 0, 0], "-1"], [[2, 0, 1], "-1"]],
    },
}

CUSP_CURVE = {"f": [[[0, 2], "1"], [[3, 0], "-1"]]}

SNC_PAIR = {
    "divisors": [{"id": "E1", "c": "1"}, {"id": "E2", "c": "1"}],
    "edges": [["E1", "E2"]],
}

V01 = {
    "generators": [
        {"n": 2, "terms": [[[1, 0, 0], "1"]]},
        {"n": 2, "terms": [[[0, 1, 0], "1"]]},
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_height_eval(capsys):
    code, out, _ = run(capsys, "height-eval", json.dumps(V01), "--point", "4,6,1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["N"] == pytest.approx(0.6931471805599453, abs=0)
    assert payload["m"] == 0.0


def test_height_eval_support_point_is_input_error(capsys):
    code, _, err = run(capsys, "height-eval", json.dumps(V01), "--point", "0,0,1")
    assert code == EXIT_INPUT
    assert "support" in err


def test_classify_snc(capsys):
    code, out, _ = run(capsys, "classify-snc", json.dumps(SNC_PAIR), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class"] == "log_canonical"
    assert payload["discrep"] == "-1"
    assert payload["totaldiscrep"] == "-1"


def test_resolve_curve(capsys):
    code, out, _ = run(capsys, "resolve-curve", json.dumps(CUSP_CURVE), "--c", "5/6,1", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["lct"] == "5/6"
    assert [n["mult"] for n in payload["nodes"]] == [2, 1, 1]
    assert payload["k"] == {"1": 1, "2": 2, "3": 4}
    assert payload["v"] == {"1": 2, "2": 3, "3": 6}
    assert payload["classification"]["5/6"]["class"] == "log_canonical"
    assert payload["classification"]["1"]["class"] == "not_log_canonical"


def test_member(capsys):
    g = json.dumps([[[1, 0], "1"]])
    code, out, _ = run(
        capsys, "member", json.dumps(CUSP_CURVE), "--c", "5/6", "--g", g, "--kind", "J", "--json"
    )
    assert code == EXIT_OK
    assert json.loads(out)["member"] is True
    g1 = json.dumps([[[0, 0], "1"]])
    code, out, _ = run(
        capsys, "member", json.dumps(CUSP_CURVE), "--c", "5/6", "--g", g1, "--kind", "J", "--json"
    )
    assert json.loads(out)["member"] is False


def test_mdlaw_with_csv(tmp_path, capsys):
    out_csv = tmp_path / "law.csv"
    code, out, _ = run(
        capsys,
        "mdlaw",
        json.dumps(NODAL_PARAM),
        "--bound",
        "10",
        "--h-min",
        "3.0",
        "--out",
        str(out_csv),
        "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["d"] == 3
    assert payload["samples"] > 20
    assert [1, 1] in payload["origin_hits"]
    header = out_csv.read_text().splitlines()[0]
    assert header == "p,q,x0,x1,x2,h,hO,N_O,residual"


def test_mdlaw_computes_origin_multiplicity_once(capsys, monkeypatch):
    import logpairs.experiments as exp

    calls = []
    real = exp.multiplicity_at

    def counted(f, pt):
        calls.append(pt)
        return real(f, pt)

    monkeypatch.setattr(exp, "multiplicity_at", counted)
    code, out, _ = run(capsys, "mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["m"] == 2
    assert calls == [(0, 0)]


def test_gcd_family_ok(capsys):
    code, out, _ = run(capsys, "gcd-family", "pure", "3", "2", "-40", "40", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == []
    code, out, _ = run(capsys, "gcd-family", "pure", "3", "2", "-40", "40")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "kind: pure",
        "d: 3",
        "m: 2",
        "a_min: -40",
        "a_max: 40",
        "checked: 81",
        "violations: []",
    ]


def test_gcd_family_violation_exit_code(capsys, monkeypatch):
    import logpairs.experiments as exp

    real = exp.gcd_family_check

    def broken(kind, d, m, a_range):
        report = real(kind, d, m, a_range)
        object.__setattr__(report, "violations", ((2, 1, 4),))
        return report

    monkeypatch.setattr("logpairs.cli.experiments.gcd_family_check", broken)
    code, _, _ = run(capsys, "gcd-family", "pure", "3", "2", "1", "5", "--json")
    assert code == EXIT_VIOLATION
    code, out, _ = run(capsys, "gcd-family", "pure", "3", "2", "1", "5")
    assert code == EXIT_VIOLATION
    assert out.splitlines()[-2:] == ["checked: 5", "violations: [[2, 1, 4]]"]


def test_gcd_bounds(capsys):
    code, out, _ = run(
        capsys, "gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "10", "--eps", "0.05", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["samples"] > 0
    assert payload["c_lower"] <= payload["c_upper"]
    code, out, _ = run(capsys, "gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "10", "--eps", "0.05")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "m: 2",
        "d: 3",
        "eps: 0.05",
        "delta: 1.0",
        "samples: 50",
        f"c_lower: {payload['c_lower']}",
        "c_upper: 1.0",
        "exponent_low: 0.6166666666666666",
        "exponent_high: 0.7166666666666667",
    ]


def test_bad_input_exit_code(capsys):
    code, _, err = run(capsys, "gcd-family", "pure", "4", "2", "1", "5")
    assert code == EXIT_INPUT
    assert "coprime" in err


def test_irrational_center_exit_code(capsys):
    curve = json.dumps({"f": [[[0, 2], "1"], [[2, 0], "-2"]]})
    code, _, err = run(capsys, "resolve-curve", curve)
    assert code == EXIT_INPUT
    assert "degree >= 2" in err


def test_bad_usage_exit_code(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == EXIT_INPUT


def test_curve_file_input(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CUSP_CURVE))
    code, out, _ = run(capsys, "resolve-curve", str(path), "--json")
    assert code == EXIT_OK
    assert json.loads(out)["lct"] == "5/6"


MIXED_DEGREE = {"generators": [{"n": 2, "terms": [[[1, 0, 0], "1"], [[0, 2, 0], "1"]]}]}


@pytest.mark.parametrize(
    "argv",
    [
        ("resolve-curve", "{}"),
        ("mdlaw", "{}"),
        ("gcd-bounds", "{}"),
        ("resolve-curve", "[1]"),
        ("resolve-curve", json.dumps(CUSP_CURVE), "--c", "x"),
        ("resolve-curve", json.dumps(CUSP_CURVE), "--c", "1/0"),
        ("member", json.dumps(CUSP_CURVE), "--c", "x", "--g", '[[[0, 0], "1"]]', "--kind", "J"),
        ("member", json.dumps(CUSP_CURVE), "--c", "1", "--g", "[1]", "--kind", "J"),
        ("height-eval", json.dumps(V01), "--point=a,1,2"),
        ("height-eval", json.dumps(V01), "--point", '[1, "b", 2]'),
        ("height-eval", "{}", "--point", "1,1,2"),
        ("height-eval", json.dumps(MIXED_DEGREE), "--point", "1,1,2"),
        ("height-eval", json.dumps(V01), "--point", "1,2"),
        ("classify-snc", '{"divisors": [{"id": "E1", "c": "x"}]}'),
        ("classify-snc", "[1]"),
        ("resolve-curve", "no-such-file.json"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--delta", "inf"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--delta", "nan"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--eps", "nan"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--eps", "inf"),
        ("mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--out", "no-such-dir/out.csv"),
        ("resolve-curve", '{"f": [[[1.5, 0], "1"], [[0, 1], "1"]]}'),
        ("member", json.dumps(CUSP_CURVE), "--c", "1", "--g", '[[[0, 0.5], "1"]]', "--kind", "J"),
        ("height-eval", '{"generators": [{"n": 2, "terms": [[[1, 0, 0], 1.5]]}]}', "--point", "1,1,2"),
        ("height-eval", '{"generators": [{"n": 2.7, "terms": [[[1, 0, 0], "1"]]}]}', "--point", "1,1,2"),
    ],
)
def test_malformed_input_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")
