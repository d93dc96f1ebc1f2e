import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logpairs.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, build_parser, main
from logpairs.polynomials import MAX_DEGREE

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



def test_member_max_depth(capsys):
    # y^2 - x^131 needs 67 blowup levels (partial quotients 65 and 2 of
    # 131/2), three more than the default 64.
    curve = json.dumps({"f": [[[0, 2], "1"], [[131, 0], "-1"]]})
    one = json.dumps([[[0, 0], "1"]])
    code, _, err = run(capsys, "member", curve, "--c", "1/2", "--g", one, "--kind", "J")
    assert code == EXIT_INPUT and "more than 64" in err
    for c, expected in (("1/2", True), ("1", False)):
        code, out, _ = run(
            capsys, "member", curve, "--c", c, "--g", one, "--kind", "J", "--max-depth", "67", "--json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["member"] is expected
    code, _, err = run(capsys, "member", curve, "--c", "1", "--g", one, "--kind", "J", "--max-depth", "66")
    assert code == EXIT_INPUT and "more than 66" in err


@st.composite
def _resolve_curve_argv(draw):
    """resolve-curve on a tower y^a - c*x^b (up to 30 nodes, so that k/v keys
    sort differently as strings and as numbers), a two-Puiseux-pair germ or a
    smooth germ (empty nodes, k and v)."""
    shape = draw(st.sampled_from(["tower", "two_pairs", "smooth"]))
    if shape == "tower":
        a = draw(st.sampled_from([2, 3]))
        b = draw(st.integers(a + 1, 60).filter(lambda b: b % a))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool))
        f = [[[0, a], "1"], [[b, 0], str(-c)]]
    elif shape == "two_pairs":
        k = draw(st.sampled_from([5, 7, 9, 11, 13]))
        f = [[[0, 4], "1"], [[3, 2], "-2"], [[6, 0], "1"], [[k, 1], "-1"]]
    else:
        f = [[[0, 1], "1"], [[2, 0], "-1"]]
    cs = draw(
        st.one_of(
            st.sampled_from(["10/3,2,5/12", "2,10,1/3,1/12", ""]),
            st.lists(st.fractions(min_value=0, max_value=12, max_denominator=12), max_size=4).map(
                lambda cs: ",".join(map(str, cs))
            ),
        )
    )
    return ["resolve-curve", json.dumps({"f": f}), "--json", *(["--c", cs] if cs else [])]


@settings(max_examples=60, deadline=None)
@given(_resolve_curve_argv())
def test_resolve_curve_json_is_the_indented_sorted_dump(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    assert out.getvalue() == json.dumps(json.loads(out.getvalue()), indent=2, sort_keys=True) + "\n"

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
NEGATIVE_EXPONENT = {"generators": [{"n": 2, "terms": [[[2, -1, 0], "1"]]}]}


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
        ("classify-snc", '{"divisors": [{"id": "E1", "c": NaN}]}'),
        ("classify-snc", '{"divisors": [{"id": "E1", "c": "-inf"}]}'),
        ("classify-snc", '{"divisors": [{"id": "E1", "c": null}]}'),
        ("classify-snc", '{"divisors": [{"id": "E1", "c": "1/0"}]}'),
        ("classify-snc", "[1]"),
        ("resolve-curve", "no-such-file.json"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--delta", "inf"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--delta", "nan"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--eps", "nan"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--eps", "inf"),
        ("gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5", "--eps", "1e9"),
        ("mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--out", "no-such-dir/out.csv"),
        ("mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--h-min", "nan"),
        ("mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--h-min", "inf"),
        ("resolve-curve", '{"f": [[[1.5, 0], "1"], [[0, 1], "1"]]}'),
        ("member", json.dumps(CUSP_CURVE), "--c", "1", "--g", '[[[0, 0.5], "1"]]', "--kind", "J"),
        ("height-eval", '{"generators": [{"n": 2, "terms": [[[1, 0, 0], 1.5]]}]}', "--point", "1,1,2"),
        ("height-eval", '{"generators": [{"n": 2.7, "terms": [[[1, 0, 0], "1"]]}]}', "--point", "1,1,2"),
        ("height-eval", json.dumps(NEGATIVE_EXPONENT), "--point", "1,2,3"),
        ("height-eval", json.dumps(NEGATIVE_EXPONENT), "--point", "1,0,3"),
        # A string is not a row, nor a vector of exponents.
        ("height-eval", '{"generators": [{"n": 2, "terms": [["100", "1"]]}]}', "--point=4,6,1"),
        ("resolve-curve", '{"f": [["02", "1"], ["30", "-1"]]}'),
        ("classify-snc", '{"divisors": [{"id": "A", "c": "1"}, {"id": "B", "c": "1"}], "edges": ["AB"]}'),
        # Degrees above MAX_DEGREE are refused before any work.
        ("resolve-curve", '{"f": [[[0, 2], "1"], [[1000000000, 0], "1"]]}'),
        ("member", json.dumps(CUSP_CURVE), "--c", "1", "--g", '[[[0, 1000000000], "1"]]', "--kind", "J"),
        ("height-eval", '{"generators": [{"n": 2, "terms": [[[1000000000, 0, 0], "1"]]}]}', "--point=4,6,1"),
    ],
)
def test_malformed_input_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


DEEP_TOWER = {"f": [[[0, 2], "1"], [[15, 0], "-1"]]}


def test_parser_reused_across_calls(capsys):
    # main builds its parser once per process; no call may leak state into
    # the next one.
    assert build_parser() is build_parser()
    assert run(capsys, "resolve-curve")[0] == EXIT_INPUT
    code, out, _ = run(capsys, "classify-snc", json.dumps(SNC_PAIR), "--json")
    assert code == EXIT_OK and json.loads(out)["class"] == "log_canonical"

    code, _, err = run(capsys, "resolve-curve", json.dumps(DEEP_TOWER), "--max-depth", "3")
    assert code == EXIT_INPUT and "more than 3" in err
    code, out, _ = run(capsys, "resolve-curve", json.dumps(DEEP_TOWER), "--json")
    assert code == EXIT_OK
    assert len(json.loads(out)["nodes"]) == 9  # partial quotients of 15/2: 7 + 2

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "resolve-curve" in capsys.readouterr().out
    code, out, _ = run(capsys, "gcd-family", "pure", "3", "2", "1", "5", "--json")
    assert code == EXIT_OK and json.loads(out)["checked"] == 5


# Fuzzed argv: each value comes from a list of valid inputs or one of
# malformed ones; sizes stay small (--bound, gcd-family ranges, degrees) so
# that every case is cheap.  Over-limit degrees are MAX_DEGREE + 1.
OVER = MAX_DEGREE + 1
CURVES = (
    [json.dumps(CUSP_CURVE), json.dumps(DEEP_TOWER), '{"f": [[[0, 2], "1"], [[2, 0], "-1"], [[3, 0], "-1"]]}'],
    [
        '{"f": [[[0, 2], "1"], [[2, 0], "-2"]]}',
        '{"f": [[[0, 2], "1"]]}',
        '{"f": [[[0, 0], "3"]]}',
        '{"f": []}',
        '{"f": [[[1.5, 0], "1"]]}',
        '{"f": [[[0, 1], "1/0"]]}',
        '{"f": [[[-1, 1], "1"]]}',
        f'{{"f": [[[0, 2], "1"], [[{OVER}, 0], "-1"]]}}',
        '{"f": [["02", "1"], ["30", "-1"]]}',
        "{}",
        "[1]",
        "{",
        "null",
        "no-such-file.json",
    ],
)
POLYS = (
    ['[[[0, 0], "1"]]', '[[[1, 0], "1"]]', '[[[0, 3], "2/3"]]', "[]"],
    ["[1]", '[[[0, 0.5], "1"]]', "{", f'[[[{MAX_DEGREE}, 1], "1"]]'],
)
SUBSCHEMES = (
    [json.dumps(V01)],
    [
        json.dumps(MIXED_DEGREE),
        json.dumps(NEGATIVE_EXPONENT),
        '{"generators": []}',
        "{}",
        "[1]",
        "7",
        f'{{"generators": [{{"n": 2, "terms": [[[{OVER}, 0, 0], "1"]]}}]}}',
        '{"generators": [{"n": 2, "terms": [["100", "1"]]}]}',
    ],
)
POINTS = (["4,6,1", "1/2,1,3", "[1, 2, 3]"], ["0,0,1", "1,2", "a,1,2", '[1, "b", 2]', "0,0,0", "inf,1,1", ""])
SNC_PAIRS = (
    [json.dumps(SNC_PAIR), '{"divisors": [{"id": "E1", "c": "3/2"}]}', '{"divisors": []}'],
    [
        '{"divisors": [{"id": "E1", "c": "1"}], "edges": [["E1", "E2"]]}',
        '{"divisors": [{"id": "E1", "c": "1"}], "edges": [["E1"]]}',
        '{"divisors": [{"id": "E1", "c": "x"}]}',
        '{"divisors": [{"id": "A", "c": "1"}, {"id": "B", "c": "1"}], "edges": ["AB"]}',
        "[1]",
    ],
)
PARAMS = (
    [json.dumps(NODAL_PARAM)],
    [
        '{"p0": [], "p1": [], "p2": [], "target": {"n": 2, "terms": []}}',
        json.dumps({**NODAL_PARAM, "target": NEGATIVE_EXPONENT["generators"][0]}),
        "{}",
    ],
)
RATIONALS = (["0", "1", "5/6", "1/3"], ["-1", "1/0", "x", "nan", ""])
SMALL_INTS = (["1", "3", "5"], ["-2", "0", "x", "2.0", "1001"])
FLOATS = (["0.05", "0.5", "1", "2"], ["0", "-1", "nan", "inf", "1e9", "x"])


def _pick(draw, values):
    """A valid value three times in four, else a malformed one."""
    valid, malformed = values
    return draw(st.sampled_from(malformed if draw(st.integers(0, 3)) == 0 else valid))


def _flag(draw, flag, values):
    return [] if draw(st.integers(0, 3)) == 0 else [flag, _pick(draw, values)]


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(
            ["height-eval", "classify-snc", "resolve-curve", "member", "mdlaw", "gcd-family", "gcd-bounds"]
        )
    )
    if command == "height-eval":
        argv = [_pick(draw, SUBSCHEMES), *_flag(draw, "--point", POINTS)]
    elif command == "classify-snc":
        argv = [_pick(draw, SNC_PAIRS)]
    elif command == "resolve-curve":
        argv = [_pick(draw, CURVES), *_flag(draw, "--max-depth", SMALL_INTS), *_flag(draw, "--c", RATIONALS)]
    elif command == "member":
        argv = [_pick(draw, CURVES), *_flag(draw, "--c", RATIONALS), *_flag(draw, "--g", POLYS)]
        argv += _flag(draw, "--kind", (["H", "J", "I"], ["K"])) + _flag(draw, "--max-depth", SMALL_INTS)
    elif command == "gcd-family":
        argv = [_pick(draw, (["pure", "shifted", "mixed"], ["other"]))]
        argv += _pick(draw, ([("3", "2"), ("5", "2"), ("7", "3")], [("4", "2"), ("2", "3"), ("x", "1"), ("65", "2")]))
        argv += _pick(draw, ([("-3", "5"), ("1", "4")], [("5", "1"), ("0", "x"), ("1", "1000001"), ("1", "100000000")]))
    else:
        argv = [_pick(draw, PARAMS), *_flag(draw, "--bound", SMALL_INTS)]
        if command == "mdlaw":
            argv += _flag(draw, "--h-min", FLOATS)
        else:
            argv += _flag(draw, "--eps", FLOATS) + _flag(draw, "--delta", FLOATS)
    extra = draw(st.sampled_from([[], [], ["--json"], ["--bogus"], ["extra"]]))
    return [command, *argv, *extra]


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_0_2_or_3(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_INPUT)
