import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logpairs import cli
from logpairs.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, build_parser, main
from logpairs.curves import AffineCurve, resolve
from logpairs.polynomials import MAX_DEGREE, Poly2

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


def test_member_after_a_deeper_resolve_curve_finds_no_center(capsys, monkeypatch):
    # The germs job pattern: resolve-curve at --max-depth 400, then member at
    # the default depth.  Four lines through the origin need a factor_list
    # for their tangent directions; member reads the stored centers.
    import sympy

    curve = json.dumps({"f": [[[0, 4], "1"], [[2, 2], "-5"], [[4, 0], "4"]]})
    calls = {"blowup_x": 0, "factor_list": 0}
    for owner, name in ((Poly2, "blowup_x"), (sympy.Poly, "factor_list")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    code, _, _ = run(capsys, "resolve-curve", curve, "--c", "1/2", "--max-depth", "400", "--json")
    assert code == EXIT_OK and calls == {"blowup_x": 1, "factor_list": 1}
    code, out, _ = run(capsys, "member", curve, "--c", "1/2", "--g", '[[[1,0],"1"]]', "--kind", "J", "--json")
    assert code == EXIT_OK and json.loads(out)["member"] is True
    assert calls == {"blowup_x": 1, "factor_list": 1}


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


A296 = [[[0, 2], "1"], [[297, 0], "-2/3"]]  # y^2 - (2/3)x^297, 150 centers
_DEEP_CURVES = [
    # Ids from 100 on sort before 11 as strings.
    pytest.param(A296, "1/2,299/594,5/12", id="y^2-x^297"),
    pytest.param([[[0, 3], "1"], [[151, 0], "-2/3"]], "", id="y^3-x^151"),
    # 119 of its 121 centers have axis_x > axis_y: the proximity list must be sorted.
    pytest.param([[[120, 0], "1"], [[0, 121], "-2/3"]], "1/3", id="x^120-y^121"),
    pytest.param([[[0, 4], "1"], [[3, 2], "-2"], [[6, 0], "1"], [[13, 1], "-1"]], "", id="two-pairs-13"),
]


@pytest.mark.parametrize("f, cs", _DEEP_CURVES)
def test_resolve_curve_json_on_deep_trees(capsys, f, cs):
    argv = ["resolve-curve", json.dumps({"f": f}), "--max-depth", "400", "--json", *(["--c", cs] if cs else [])]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    tree = resolve(AffineCurve.from_json(f), 400)
    assert [n["proximate_to"] for n in payload["nodes"]] == [sorted(n.proximate_to) for n in tree.nodes]


def test_resolve_curve_text_on_a_deep_tower(capsys):
    # y^2 - (2/3)x^297 is the A_296 singularity: a run of 148 centers of
    # multiplicity 2, then two simple ones; lct 1/2 + 1/297.
    code, out, _ = run(capsys, "resolve-curve", json.dumps({"f": A296}), "--max-depth", "400")
    assert code == EXIT_OK
    nodes = [
        "node 1: parent=None proximate_to=[] mult=2",
        *(f"node {i}: parent={i - 1} proximate_to=[{i - 1}] mult=2" for i in range(2, 149)),
        "node 149: parent=148 proximate_to=[148] mult=1",
        "node 150: parent=149 proximate_to=[148, 149] mult=1",
    ]
    divisors = [*(f"E{i}: k={i} v={2 * i}" for i in range(1, 149)), "E149: k=149 v=297", "E150: k=298 v=594"]
    last = ["lct: 299/594", "c=299/594: class=log_canonical discrep=-296/297 totaldiscrep=-1"]
    assert out.splitlines() == [*nodes, *divisors, *last]


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


def test_gcd_bounds_after_mdlaw_reads_the_same_sample(capsys, monkeypatch):
    # The mdlaw job pattern: gcd-bounds on the param and bound of the mdlaw
    # run before it evaluates and normalizes no point, and prints what a
    # cold gcd-bounds run prints.
    import logpairs.experiments as exp

    param = json.dumps(NODAL_PARAM)
    gcd_bounds = ("gcd-bounds", param, "--bound", "12", "--eps", "0.05", "--delta", "0.5")
    code, cold, _ = run(capsys, *gcd_bounds)
    assert code == EXIT_OK
    exp.sample_param_points.cache_clear()
    calls = {"evaluate": 0, "normalize_point": 0}
    for owner, name in ((exp.ParamCurve, "evaluate"), (exp, "normalize_point")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    code, _, _ = run(capsys, "mdlaw", param, "--bound", "12", "--json")
    assert code == EXIT_OK and calls["evaluate"] == calls["normalize_point"] > 100
    calls.update(evaluate=0, normalize_point=0)
    code, warm, _ = run(capsys, *gcd_bounds)
    assert code == EXIT_OK and calls == {"evaluate": 0, "normalize_point": 0}
    assert warm == cold


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


def _with_violations(check):
    def broken(kind, d, m, a_range):
        report = check(kind, d, m, a_range)
        object.__setattr__(report, "violations", ((2, 1, 4),))
        return report

    return broken


def test_gcd_family_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli.experiments, "gcd_family_check", _with_violations(cli.experiments.gcd_family_check))
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


@pytest.mark.parametrize(
    "command, rest",
    [
        ("height-eval", ["--point", "1,2,3"]),
        ("resolve-curve", []),
        ("member", ["--c", "1", "--g", '[[[0, 0], "1"]]', "--kind", "J"]),
        ("classify-snc", []),
        ("mdlaw", ["--bound", "5"]),
        ("gcd-bounds", ["--bound", "5"]),
    ],
)
def test_a_file_that_is_not_utf8_exits_3(tmp_path, capsys, command, rest):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, command, str(path), *rest)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.splitlines() == [f"error: cannot read {str(path)!r}: not UTF-8 (invalid start byte at byte 0)"]


MIXED_DEGREE = {"generators": [{"n": 2, "terms": [[[1, 0, 0], "1"], [[0, 2, 0], "1"]]}]}
BIG_INT = "1" * 5000  # past Python's 4300-digit limit for reading an int
NEGATIVE_EXPONENT = {"generators": [{"n": 2, "terms": [[[2, -1, 0], "1"]]}]}
DEEP_JSON = "[" * 100_000


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
        # Numbers past MAX_DIGITS digits, or past Python's own limit, are refused
        # when they are read, before anything is built or printed.
        ("resolve-curve", json.dumps(CUSP_CURVE), "--c", "1e-5000"),
        ("height-eval", json.dumps(V01), "--point", "1e5000,1,1"),
        ("classify-snc", f'{{"divisors": [{{"id": "E1", "c": {BIG_INT}}}]}}'),
        ("classify-snc", '{"divisors": [{"id": "E1", "c": "1e-1000000"}]}'),
        ("resolve-curve", '{"f": [[[0, 2], "1"], [["1e1000000", 0], "1"]]}'),
        # JSON nested past Python's recursion limit.
        ("classify-snc", DEEP_JSON),
        ("height-eval", json.dumps(V01), "--point", DEEP_JSON),
        ("resolve-curve", DEEP_JSON),
        ("mdlaw", DEEP_JSON),
        # Documents of the wrong shape, read by their own types.
        ("height-eval", '{"generators": 5}', "--point", "1,1,2"),
        ("classify-snc", '{"divisors": [{"id": "E1"}]}'),
        ("classify-snc", '{"divisors": [], "edges": 5}'),
        ("mdlaw", json.dumps({k: v for k, v in NODAL_PARAM.items() if k != "target"})),
        ("member", json.dumps(CUSP_CURVE), "--c", "1", "--g", '{"x": 1}', "--kind", "J"),
    ],
)
def test_malformed_input_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["mdlaw", "gcd-bounds"])
def test_target_outside_the_plane_exits_3(capsys, command):
    # the nodal cubic's forms with the P^3 target x3 * (x1^2 x2 - x0^3 - x0^2 x2)
    terms = [[[0, 2, 1, 1], "1"], [[3, 0, 0, 1], "-1"], [[2, 0, 1, 1], "-1"]]
    doc = dict(NODAL_PARAM, target={"n": 3, "terms": terms})
    code, out, err = run(capsys, command, json.dumps(doc), "--bound", "5")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.splitlines() == ["error: target curve must live in the projective plane"]


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


COMMANDS = ["height-eval", "classify-snc", "resolve-curve", "member", "mdlaw", "gcd-family", "gcd-bounds"]


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: logpairs [-h]")
    assert all(command in out for command in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: logpairs {command} ")


# The command-line surface, byte for byte: every parser's --help at 80
# columns, and each command's default and --json stdout on one fixed input.
# argparse prints options in the order they were added, so these also pin
# the parsers.
HELP = {
    "": """\
usage: logpairs [-h]
                {height-eval,classify-snc,resolve-curve,member,mdlaw,gcd-family,gcd-bounds}
                ...

Command-line driver. Exit codes: 0 on success, 2 when an exact identity check
reports violations, 3 on invalid or unusable input.

positional arguments:
  {height-eval,classify-snc,resolve-curve,member,mdlaw,gcd-family,gcd-bounds}
    height-eval         height, counting, and proximity of a point
    classify-snc        classify an SNC configuration
    resolve-curve       resolve a plane-curve germ at the origin
    member              ideal membership of a polynomial
    mdlaw               height-law report for a parametrized curve
    gcd-family          exact gcd identity over a base range
    gcd-bounds          fit sandwich constants for gcd growth

options:
  -h, --help            show this help message and exit
""",
    "height-eval": """\
usage: logpairs height-eval [-h] --point POINT [--json] subscheme

positional arguments:
  subscheme      subscheme JSON (path or inline)

options:
  -h, --help     show this help message and exit
  --point POINT  coordinates, comma separated or a JSON array
  --json
""",
    "classify-snc": """\
usage: logpairs classify-snc [-h] [--json] pair

positional arguments:
  pair        pair JSON (path or inline)

options:
  -h, --help  show this help message and exit
  --json
""",
    "resolve-curve": """\
usage: logpairs resolve-curve [-h] [--max-depth MAX_DEPTH] [--c C] [--json]
                              curve

positional arguments:
  curve                 curve JSON (path or inline)

options:
  -h, --help            show this help message and exit
  --max-depth MAX_DEPTH
  --c C                 comma-separated boundary coefficients
  --json
""",
    "member": """\
usage: logpairs member [-h] --c C --g G --kind {H,J,I} [--max-depth MAX_DEPTH]
                       [--json]
                       curve

positional arguments:
  curve                 curve JSON (path or inline)

options:
  -h, --help            show this help message and exit
  --c C                 boundary coefficient (rational)
  --g G                 test polynomial JSON (path or inline)
  --kind {H,J,I}
  --max-depth MAX_DEPTH
  --json
""",
    "mdlaw": """\
usage: logpairs mdlaw [-h] [--bound BOUND] [--h-min H_MIN] [--out OUT]
                      [--json]
                      param

positional arguments:
  param          parametrization JSON (path or inline)

options:
  -h, --help     show this help message and exit
  --bound BOUND
  --h-min H_MIN
  --out OUT      CSV output path
  --json
""",
    "gcd-family": """\
usage: logpairs gcd-family [-h] [--json] {pure,shifted,mixed} d m a_min a_max

positional arguments:
  {pure,shifted,mixed}
  d
  m
  a_min
  a_max

options:
  -h, --help            show this help message and exit
  --json
""",
    "gcd-bounds": """\
usage: logpairs gcd-bounds [-h] [--bound BOUND] [--eps EPS] [--delta DELTA]
                           [--json]
                           param

positional arguments:
  param          parametrization JSON (path or inline)

options:
  -h, --help     show this help message and exit
  --bound BOUND
  --eps EPS
  --delta DELTA
  --json
""",
}


@pytest.mark.parametrize("command", HELP)
def test_help_is_byte_exact(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


SURFACE = {
    "height-eval": (
        ["height-eval", json.dumps(V01), "--point", "4,6,1"],
        """\
point: (4:6:1)
h: 0.6931471805599453
N: 0.6931471805599453
m: 0.0
""",
        """\
{
  "N": 0.6931471805599453,
  "h": 0.6931471805599453,
  "m": 0.0,
  "point": "(4:6:1)"
}
""",
    ),
    "classify-snc": (
        ["classify-snc", json.dumps(SNC_PAIR)],
        """\
class: log_canonical
discrep: -1
totaldiscrep: -1
""",
        """\
{
  "class": "log_canonical",
  "discrep": "-1",
  "totaldiscrep": "-1"
}
""",
    ),
    "resolve-curve": (
        ["resolve-curve", json.dumps(CUSP_CURVE), "--c", "5/6,1"],
        """\
node 1: parent=None proximate_to=[] mult=2
node 2: parent=1 proximate_to=[1] mult=1
node 3: parent=2 proximate_to=[1, 2] mult=1
E1: k=1 v=2
E2: k=2 v=3
E3: k=4 v=6
lct: 5/6
c=5/6: class=log_canonical discrep=-5/6 totaldiscrep=-1
c=1: class=not_log_canonical discrep=-inf totaldiscrep=-inf
""",
        """\
{
  "classification": {
    "1": {
      "class": "not_log_canonical",
      "discrep": "-inf",
      "totaldiscrep": "-inf"
    },
    "5/6": {
      "class": "log_canonical",
      "discrep": "-5/6",
      "totaldiscrep": "-1"
    }
  },
  "k": {
    "1": 1,
    "2": 2,
    "3": 4
  },
  "lct": "5/6",
  "nodes": [
    {
      "id": 1,
      "mult": 2,
      "parent": null,
      "proximate_to": []
    },
    {
      "id": 2,
      "mult": 1,
      "parent": 1,
      "proximate_to": [
        1
      ]
    },
    {
      "id": 3,
      "mult": 1,
      "parent": 2,
      "proximate_to": [
        1,
        2
      ]
    }
  ],
  "v": {
    "1": 2,
    "2": 3,
    "3": 6
  }
}
""",
    ),
    "member": (
        ["member", json.dumps(CUSP_CURVE), "--c", "5/6", "--g", '[[[1, 0], "1"]]', "--kind", "J"],
        """\
c: 5/6
kind: J
member: True
""",
        """\
{
  "c": "5/6",
  "kind": "J",
  "member": true
}
""",
    ),
    "mdlaw": (
        ["mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--h-min", "1.5"],
        """\
m: 2
d: 3
samples: 38
samples_high: 36
max_abs_residual: 0.2755595243948226
max_abs_residual_high: 0.2755595243948226
slope_fit: 0.6721608236934588
origin_hits: [[-1, 1], [1, 1]]
""",
        """\
{
  "d": 3,
  "m": 2,
  "max_abs_residual": 0.2755595243948226,
  "max_abs_residual_high": 0.2755595243948226,
  "origin_hits": [
    [
      -1,
      1
    ],
    [
      1,
      1
    ]
  ],
  "samples": 38,
  "samples_high": 36,
  "slope_fit": 0.6721608236934588
}
""",
    ),
    "gcd-family": (
        ["gcd-family", "shifted", "3", "2", "-10", "10"],
        """\
kind: shifted
d: 3
m: 2
a_min: -10
a_max: 10
checked: 18
violations: []
""",
        """\
{
  "a_max": 10,
  "a_min": -10,
  "checked": 18,
  "d": 3,
  "kind": "shifted",
  "m": 2,
  "violations": []
}
""",
    ),
    "gcd-bounds": (
        ["gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "5"],
        """\
m: 2
d: 3
eps: 0.05
delta: 1.0
samples: 18
c_lower: 0.8967758838818929
c_upper: 1.0
exponent_low: 0.6166666666666666
exponent_high: 0.7166666666666667
""",
        """\
{
  "c_lower": 0.8967758838818929,
  "c_upper": 1.0,
  "d": 3,
  "delta": 1.0,
  "eps": 0.05,
  "exponent_high": 0.7166666666666667,
  "exponent_low": 0.6166666666666666,
  "m": 2,
  "samples": 18
}
""",
    ),
}


@pytest.mark.parametrize("command", SURFACE)
def test_stdout_is_byte_exact(capsys, command):
    argv, plain, as_json = SURFACE[command]
    assert run(capsys, *argv) == (EXIT_OK, plain, "")
    assert run(capsys, *argv, "--json") == (EXIT_OK, as_json, "")


def test_an_empty_window_reads_samples_high_0(capsys):
    argv = ["mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--h-min", "1e9"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert "\nsamples_high: 0\n" in out and "\nmax_abs_residual_high: 0.0\n" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["samples"], payload["samples_high"]) == (38, 0)


# p1 = 2*p0 and p0 = st(s^2 - t^2) vanishes at every pair of bound 1, so every
# sampled image is the distinguished point (0:0:1).
ALL_AT_ORIGIN = {
    "p0": [[[3, 1], "1"], [[1, 3], "-1"]],
    "p1": [[[3, 1], "2"], [[1, 3], "-2"]],
    "p2": [[[4, 0], "1"], [[0, 4], "1"]],
    "target": {"n": 2, "terms": [[[0, 1, 0], "1"], [[1, 0, 0], "-2"]]},
}


def test_an_empty_sample_exits_3_before_the_csv_is_opened(capsys, tmp_path):
    out_csv = tmp_path / "law.csv"
    argv = ["mdlaw", json.dumps(ALL_AT_ORIGIN), "--bound", "1", "--out", str(out_csv)]
    assert run(capsys, *argv) == (EXIT_INPUT, "", "error: cannot build a report from an empty sample\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("delta", ["0.001", "1.0"])
def test_gcd_bounds_reports_an_empty_sample_at_any_delta(capsys, delta):
    argv = ["gcd-bounds", json.dumps(ALL_AT_ORIGIN), "--bound", "1", "--delta", delta]
    assert run(capsys, *argv) == (EXIT_INPUT, "", "error: cannot build a report from an empty sample\n")


SMOOTH_CURVE = {"f": [[[0, 1], "1"], [[2, 0], "-1"]]}


@pytest.mark.parametrize("curve", [CUSP_CURVE, SMOOTH_CURVE], ids=["singular", "smooth"])
@pytest.mark.parametrize("command", ["resolve-curve", "member"])
def test_negative_max_depth_exits_3(capsys, command, curve):
    def argv(depth):
        extra = ["--c", "1", "--g", '[[[1, 0], "1"]]', "--kind", "J"] if command == "member" else []
        return [command, json.dumps(curve), "--max-depth", depth, *extra]

    assert run(capsys, *argv("-5")) == (EXIT_INPUT, "", "error: max_depth must be at least 0, got -5\n")
    # Depth 0 resolves the smooth germ; the cusp needs a blowup.
    assert run(capsys, *argv("0"))[0] == (EXIT_OK if curve is SMOOTH_CURVE else EXIT_INPUT)


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["height-eval", json.dumps(V01)], "usage: logpairs height-eval "),  # no --point
        (["gcd-family", "pure", "3", "2", "1", "5", "--bogus"], "usage: logpairs gcd-family "),
        (["classify-snc", json.dumps(SNC_PAIR), "extra"], "usage: logpairs classify-snc "),
        (["member", json.dumps(CUSP_CURVE), "--c", "1", "--g", "[]", "--kind", "K"], "usage: logpairs member "),
        (["no-such-command"], "usage: logpairs [-h]"),
        (["--bogus"], "usage: logpairs [-h]"),
        ([], "usage: logpairs [-h]"),
    ],
)
def test_usage_errors_exit_3_with_one_usage_and_one_error_line(capsys, argv, usage):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    lines = err.splitlines()
    assert err.startswith(usage)
    assert [sum(line.startswith(word) for line in lines) for word in ("usage:", "error:")] == [1, 1]


def test_option_forms_still_parse(capsys):
    code, out, _ = run(capsys, "mdlaw", json.dumps(NODAL_PARAM), "--bo", "5", "--json")
    assert code == EXIT_OK
    assert out == run(capsys, "mdlaw", json.dumps(NODAL_PARAM), "--bound", "5", "--json")[1]
    code, out, _ = run(capsys, "height-eval", json.dumps(V01), "--point=4,6,1")
    assert code == EXIT_OK and out.startswith("point: (4:6:1)\n")
    code, out, _ = run(capsys, "gcd-family", "shifted", "3", "2", "-40", "40", "--json")
    assert code == EXIT_OK
    assert json.loads(out)["a_min"] == -40


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["height-eval", json.dumps(V01), "--point", "4,6,1"],
        ["classify-snc", json.dumps(SNC_PAIR)],
        ["member", json.dumps(CUSP_CURVE), "--c", "5/6", "--g", '[[[1, 0], "1"]]', "--kind", "J"],
        ["mdlaw", json.dumps(NODAL_PARAM), "--bound", "10"],  # origin_hits holds [1, 1]
        ["gcd-family", "pure", "3", "2", "1", "5"],
        ["gcd-bounds", json.dumps(NODAL_PARAM), "--bound", "10"],
    ],
)
def test_json_output_is_the_indented_sorted_dump(capsys, monkeypatch, argv):
    payloads = []
    real = cli._emit

    def recorded(payload, as_json):
        payloads.append(payload)
        real(payload, as_json)

    monkeypatch.setattr(cli, "_emit", recorded)
    if argv[0] == "gcd-family":  # a non-empty violations list
        monkeypatch.setattr(cli.experiments, "gcd_family_check", _with_violations(cli.experiments.gcd_family_check))
    code, out, _ = run(capsys, *argv, "--json")
    assert code in (EXIT_OK, EXIT_VIOLATION)
    [payload] = payloads
    assert out == _dump(payload)
    if argv[0] == "mdlaw":
        assert payload["origin_hits"]
    if argv[0] == "gcd-family":
        assert payload["violations"] == [[2, 1, 4]]


def test_json_writer_floats(capsys):
    payload = {
        "zero": -0.0,
        "tiny": 1e-300,
        "nan": math.nan,
        "inf": math.inf,
        "-inf": -math.inf,
        "big": 10**30,
        "flags": [True, False, None],
        "nested": {"b": [[], {}], "a": [1.5, "\u00e9\n\"", [-0.0]]},
        "empty": [],
    }
    cli._emit(payload, True)
    assert capsys.readouterr().out == _dump(payload)


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.text(),
        st.recursive(
            _JSON_LEAVES,
            lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
            max_leaves=20,
        ),
    )
)
def test_json_writer_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, True)
    assert out.getvalue() == _dump(payload)


# Fuzzed argv: each value comes from a list of valid inputs or one of
# malformed ones; sizes stay small (--bound, gcd-family ranges, degrees) so
# that every case is cheap.  Over-limit degrees are MAX_DEGREE + 1.  Every
# document may also be of the wrong shape or nested too deeply ("5" is read
# as a file name); 20,000 brackets pass the recursion limit and stay short
# enough for hypothesis to print a failing example.
OVER = MAX_DEGREE + 1
NESTED = "[" * 20_000
WRONG_SHAPES = ["{}", "[]", "5", NESTED]
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
        '{"f": [[[0, 2], "1"], [[3, 0], "1e-5000"]]}',
        '{"f": [[[0, 2], "1"], [[3, 0], 1e5000]]}',
        f'{{"f": [[[0, 2], "1"], [[3, 0], {BIG_INT}]]}}',
        "[1]",
        "{",
        "null",
        "no-such-file.json",
        *WRONG_SHAPES,
    ],
)
POLYS = (
    ['[[[0, 0], "1"]]', '[[[1, 0], "1"]]', '[[[0, 3], "2/3"]]', "[]"],
    ["[1]", '[[[0, 0.5], "1"]]', "{", f'[[[{MAX_DEGREE}, 1], "1"]]', '{"x": 1}', NESTED],
)
SUBSCHEMES = (
    [json.dumps(V01)],
    [
        json.dumps(MIXED_DEGREE),
        json.dumps(NEGATIVE_EXPONENT),
        '{"generators": []}',
        "[1]",
        f'{{"generators": [{{"n": 2, "terms": [[[{OVER}, 0, 0], "1"]]}}]}}',
        '{"generators": [{"n": 2, "terms": [["100", "1"]]}]}',
        '{"generators": 5}',
        *WRONG_SHAPES,
    ],
)
POINTS = (
    ["4,6,1", "1/2,1,3", "[1, 2, 3]"],
    ["0,0,1", "1,2", "a,1,2", '[1, "b", 2]', "0,0,0", "inf,1,1", ""]
    + ["1e-5000,1,1", "1e5000,1,1", f"[{BIG_INT}, 1, 1]", NESTED],
)
SNC_PAIRS = (
    [json.dumps(SNC_PAIR), '{"divisors": [{"id": "E1", "c": "3/2"}]}', '{"divisors": []}'],
    [
        '{"divisors": [{"id": "E1", "c": "1"}], "edges": [["E1", "E2"]]}',
        '{"divisors": [{"id": "E1", "c": "1"}], "edges": [["E1"]]}',
        '{"divisors": [{"id": "E1", "c": "x"}]}',
        '{"divisors": [{"id": "A", "c": "1"}, {"id": "B", "c": "1"}], "edges": ["AB"]}',
        '{"divisors": [{"id": "E1", "c": "1e-5000"}]}',
        '{"divisors": [{"id": "E1", "c": 1e5000}]}',
        f'{{"divisors": [{{"id": "E1", "c": {BIG_INT}}}]}}',
        "[1]",
        '{"divisors": [{"id": "E1"}]}',
        *WRONG_SHAPES,
    ],
)
PARAMS = (
    [json.dumps(NODAL_PARAM)],
    [
        '{"p0": [], "p1": [], "p2": [], "target": {"n": 2, "terms": []}}',
        json.dumps({**NODAL_PARAM, "target": NEGATIVE_EXPONENT["generators"][0]}),
        json.dumps({k: v for k, v in NODAL_PARAM.items() if k != "target"}),
        *WRONG_SHAPES,
    ],
)
RATIONALS = (["0", "1", "5/6", "1/3"], ["-1", "1/0", "x", "nan", "", "1e-5000", "1e5000", BIG_INT])
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
        ranges = [("5", "1"), ("0", "x"), ("1", "1000001"), ("1", "100000000"), ("1000001", "1000002")]
        argv += _pick(draw, ([("-3", "5"), ("1", "4")], ranges))
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
@example(["classify-snc", NESTED])  # drawn in most runs, and always tried
@example(["height-eval", json.dumps(V01), "--point", NESTED])
def test_fuzzed_argv_exits_0_2_or_3(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_INPUT)
