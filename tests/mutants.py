"""Rerun the mutants that the tests are known to kill.

Each entry of MUTANTS is (name, file, old text, new text, tests).  For each,
the script applies the edit to a temporary copy of the repository, runs the
named tests there with pytest, and calls the mutant killed when they fail
(pytest exit code 1).  Before that it runs every named test on the unmutated
copy, which must pass within BASELINE_LIMIT seconds; when it fails or times
out, the last TAIL lines of pytest's output are printed.  Each mutant's run
then has its own time limit, LIMIT_FACTOR times that baseline's duration and
at least MIN_LIMIT seconds; a mutant that outlasts it (say, one that makes a
loop endless) is stopped and reported "killed (timed out)".  A run that ends
with pytest exit 2 to 5 (interrupted, an internal or usage error, or no test
collected; a mutant that breaks the import of a named test gives 2 or 4) is
reported "NOT RUN" with its reason, and like a survivor it is not counted
as killed.  The old text must occur exactly once in its file, so an edit
that no longer applies is reported as stale, not silently skipped, and the
summary line counts stale mutants next to those not run.

Usage: ``python tests/mutants.py [name ...]`` runs all mutants, or only the
named ones; it exits 0 when every mutant run is killed.  It is not a pytest
module and Tier-1 does not run it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = "tests/test_resolution_oracles.py"
RUNS = f"{ORACLES}::TestRuns"
BASELINE_LIMIT = 900
TAIL = 40
LIMIT_FACTOR = 3
MIN_LIMIT = 60
SQUAREFREE = "tests/test_curves.py::TestSquarefree::test_each_branch_of_the_certificate"
IDENTITY_BITS = "tests/test_experiments.py::TestWorkLimits::test_identity_bits"
MEMO_DEPTH = "tests/test_curves.py::TestMemo::test_a_shallower_depth_still_raises"
MEMO_BOUNDS = "tests/test_curves.py::TestMemo::test_every_bound_reads_as_a_fresh_resolve"
MEMO_TRAFFIC = "tests/test_curves.py::TestMemoTraffic"
NOT_RUN = {
    2: "interrupted by a collection error",
    3: "internal error",
    4: "usage error, as when a named test cannot be collected",
    5: "no tests collected",
}
SAMPLE_MEMO = "tests/test_experiments.py::TestSampleMemo"
EDGE_MEMO = "tests/test_snc.py::TestEdgeMemo"
BOOL = "tests/test_constructors.py::test_a_bool_is_not_a_number"
READER = [
    "tests/test_polynomials.py::test_read_number_rules",
    "tests/test_polynomials.py::test_read_number_reads_a_float_as_its_repr",
    "tests/test_polynomials.py::test_exponent_alone_refuses_a_literal_before_building_it",
]


def _memo_keyed_by(params: str, key: str) -> str:
    """A one-entry memo in place of the lru_cache of a function of
    ``params``, keyed by the expression ``key`` in them alone, with the
    cache_clear that the tests call."""
    return (
        "def _memo(fn):\n"
        "    kept = {}\n"
        "\n"
        f"    def memo({params}):\n"
        f"        if {key} not in kept:\n"
        f"            value = fn({params})\n"
        "            kept.clear()\n"
        f"            kept[{key}] = value\n"
        f"        return kept[{key}]\n"
        "\n"
        "    memo.cache_clear = kept.clear\n"
        "    memo.__wrapped__ = fn\n"
        "    return memo\n"
        "\n"
        "\n"
        "@_memo\n"
    )


MUTANTS = [
    # Resolution: chart shifts, runs of forced centers, the proximity recursion.
    (
        "replay mirrors every chart shift",
        "src/logpairs/curves.py",
        ".blowup_x(node.shift)",
        ".blowup_x(-node.shift)",
        [f"{ORACLES}::TestCurvettes", f"{ORACLES}::TestChangeOfCoordinates"],
    ),
    (
        "run replay substitutes one step short",
        "src/logpairs/curves.py",
        "(h.x_chart(k, s, vertical) if k",
        "(h.x_chart(k - 1, s, vertical) if k",
        [f"{ORACLES}::TestRunReplay"],
    ),
    (
        "run replay reads each order one step short",
        "src/logpairs/curves.py",
        "k, terms = k + 1, h.terms",
        "k, terms = k, h.terms",
        [f"{ORACLES}::TestRunReplay"],
    ),
    (
        "replay leaves a vertical run without swapping back",
        "src/logpairs/curves.py",
        "h.x_chart(k, s, vertical) if k else h, 1,",
        "h.x_chart(k, s) if k else h, 1,",
        [f"{ORACLES}::TestRunReplay"],
    ),
    (
        "replay leaves a vertical run for a shift without swapping back",
        "src/logpairs/curves.py",
        "(h.x_chart(k, s, vertical) if k else h).blowup_x",
        "(h.x_chart(k, s) if k else h).blowup_x",
        [f"{ORACLES}::TestRunReplay"],
    ),
    (
        "replay keeps a run across a change of chart",
        "src/logpairs/curves.py",
        "if node.shift is None if vertical else node.shift == 0:",
        "if node.shift is None or node.shift == 0:",
        [f"{ORACLES}::TestRunReplay"],
    ),
    (
        "run node written with axis_y None",
        "src/logpairs/curves.py",
        "ResolutionNode(p + 1, p, m, _ZERO, p, node.axis_y)",
        "ResolutionNode(p + 1, p, m, _ZERO, p, None)",
        [RUNS],
    ),
    (
        "vertical run node with its axes swapped",
        "src/logpairs/curves.py",
        "ResolutionNode(p + 1, p, m, None, node.axis_x, p)",
        "ResolutionNode(p + 1, p, m, None, p, node.axis_x)",
        [RUNS],
    ),
    (
        "vertical run one center short",
        "src/logpairs/curves.py",
        "local.x_chart(run, run * m, mirror=True)",
        "local.x_chart(run - 1, (run - 1) * m, mirror=True)",
        [RUNS],
    ),
    (
        "vertical run test reads the x chart",
        "src/logpairs/curves.py",
        "[(i + j - m, i) for i, j in local.terms]",
        "[(i + j - m, j) for i, j in local.terms]",
        [RUNS],
    ),
    (
        "vertical runs never start",
        "src/logpairs/curves.py",
        "vertical = (0, 0) in transformed.terms",
        "vertical = False",
        [f"{RUNS}::test_a_run_costs_no_blowup_per_center"],
    ),
    (
        "blow_up_point takes a center the tree already has",
        "src/logpairs/curves.py",
        "    if any(n.parent == node_id and n.shift == shift for n in tree.nodes):\n",
        "    if False:\n",
        ["tests/test_curves.py::TestResolutionIndependence::test_a_center_the_tree_has_is_refused"],
    ),
    (
        "run length + 1",
        "src/logpairs/curves.py",
        "(i + j - m) // (m - j) + 1 for",
        "(i + j - m) // (m - j) + 2 for",
        [RUNS],
    ),
    (
        "run length - 1",
        "src/logpairs/curves.py",
        "(i + j - m) // (m - j) + 1 for",
        "(i + j - m) // (m - j) for",
        [RUNS],
    ),
    (
        "run length with a off by one",
        "src/logpairs/curves.py",
        "(i + j - m) // (m - j) + 1 for",
        "(i + j - m + 1) // (m - j) + 1 for",
        [RUNS],
    ),
    (
        "run limit + 1",
        "src/logpairs/curves.py",
        "min([limit, *(",
        "min([limit + 1, *(",
        [RUNS],
    ),
    (
        "run rule reads only j < m - 1",
        "src/logpairs/curves.py",
        "exponents if j < m)])",
        "exponents if j < m - 1)])",
        [RUNS],
    ),
    (
        "run substitution one step short",
        "src/logpairs/curves.py",
        "transformed.x_chart(run, run * m)",
        "transformed.x_chart(run - 1, (run - 1) * m)",
        [RUNS],
    ),
    (
        "unroll reads the x axis twice",
        "src/logpairs/curves.py",
        "base(node) + x[node.axis_x] + x[node.axis_y]",
        "base(node) + x[node.axis_x] + x[node.axis_x]",
        [RUNS],
    ),
    (
        "dual_edges drops the separated pairs",
        "src/logpairs/curves.py",
        "meets.discard((ax, ay) if ax < ay else (ay, ax))",
        "pass",
        ["tests/test_curves.py::TestDualGraph"],
    ),
    (
        "dual_edges separates a pair in axis order",
        "src/logpairs/curves.py",
        "meets.discard((ax, ay) if ax < ay else (ay, ax))",
        "meets.discard((ax, ay))",
        ["tests/test_curves.py::TestDualGraph"],
    ),
    (
        "J threshold rounds down",
        "src/logpairs/curves.py",
        "    return -a_num // den\n",
        "    return -(a_num // den)\n",
        [f"{ORACLES}::TestNewtonNondegenerate", "tests/test_curves.py::TestIdealThresholds"],
    ),
    (
        "perturbed I threshold without its - 1",
        "src/logpairs/curves.py",
        "return -(a_num // den) - 1",
        "return -(a_num // den)",
        ["tests/test_curves.py::TestIdealThresholds"],
    ),
    (
        "resolve accepts a negative depth",
        "src/logpairs/curves.py",
        "    if max_depth < 0:\n",
        "    if False:\n",
        [
            "tests/test_curves.py::TestResolve::test_negative_depth_is_refused_before_any_work",
            "tests/test_cli.py::test_negative_max_depth_exits_3",
        ],
    ),
    (
        "pair_discrepancies reads c by Fraction",
        "src/logpairs/curves.py",
        "    c = read_number(c, InputError)\n",
        "    c = Fraction(c)\n",
        ["tests/test_constructors.py::test_same_number_same_meaning"],
    ),
    # The squarefree test: u^2 | f, the univariate certificate, the fallback.
    (
        "squarefree test takes u^2 | f for squarefree",
        "src/logpairs/curves.py",
        "for column in columns.values()) > 1:",
        "for column in columns.values()) > 2:",
        [SQUAREFREE],
    ),
    (
        "the certificate runs without a one-term column",
        "src/logpairs/curves.py",
        "if any(len(column) == 1 for column in columns.values()):",
        "if True:",
        [SQUAREFREE],
    ),
    (
        "squarefree certificate ignores the leading column",
        "src/logpairs/curves.py",
        "        if values[(top,)]:\n",
        "        if True:\n",
        [SQUAREFREE],
    ),
    (
        "squarefree test answers False when no value certifies",
        "src/logpairs/curves.py",
        '    f = sympy.Poly.from_dict(terms, first, second, domain="ZZ")\n',
        "    return False\n",
        [SQUAREFREE],
    ),
    # The memos: the centers' needed depth and a tree for each caller.
    (
        "a centers hit skips the depth check",
        "src/logpairs/curves.py",
        "    if needed <= max_depth:\n",
        "    if centers is not None:\n",
        [MEMO_DEPTH, MEMO_BOUNDS],
    ),
    (
        "a centers hit refuses the depth its tree needs",
        "src/logpairs/curves.py",
        "if needed <= max_depth:",
        "if needed < max_depth:",
        [MEMO_DEPTH, MEMO_BOUNDS],
    ),
    (
        "the needed depth one short",
        "src/logpairs/curves.py",
        "        needed = max(needed, depth)\n",
        "        needed = max(needed, depth - 1)\n",
        [MEMO_BOUNDS],
    ),
    (
        "resolve hands out one shared tree",
        "src/logpairs/curves.py",
        "\ndef resolve(",
        "\n@functools.lru_cache(maxsize=1)\ndef resolve(",
        ["tests/test_curves.py::TestMemo::test_an_equal_poly_gets_the_centers_in_its_own_tree"],
    ),
    (
        "the centers memo never replaces its entry",
        "src/logpairs/curves.py",
        "    _CENTERS.clear()\n    _CENTERS[poly] = (needed, centers)\n",
        "    if not _CENTERS:\n        _CENTERS[poly] = (needed, centers)\n",
        [MEMO_TRAFFIC],
    ),
    (
        "a centers miss drops the kept entry before it runs",
        "src/logpairs/curves.py",
        "    needed = 0\n",
        "    needed = 0\n    _CENTERS.clear()\n",
        [MEMO_DEPTH],
    ),
    (
        "the squarefree memo keeps nothing",
        "src/logpairs/curves.py",
        "@functools.lru_cache(maxsize=1)\ndef _is_squarefree(",
        "@functools.lru_cache(maxsize=0)\ndef _is_squarefree(",
        [MEMO_TRAFFIC],
    ),
    (
        "resolve reads its depth without the integer reader",
        "src/logpairs/curves.py",
        '    max_depth = exact_int(max_depth, "max_depth", BadRangeError)\n',
        "",
        ["tests/test_curves.py::TestResolve::test_depth_is_read_as_an_integer"],
    ),
    (
        "multiplicity_at unpacks its point without the shape reader",
        "src/logpairs/curves.py",
        "[(px, py)] = read_rows([pt], lambda x, y: (read_number(x, InputError), read_number(y, InputError)), "
        "InputError)",
        "px, py = (read_number(c, InputError) for c in pt)",
        ["tests/test_curves.py::TestMultiplicityAt"],
    ),
    # Polynomials: division and the integer evaluate path.
    (
        "divide builds each step's monomial through the reader",
        "src/logpairs/polynomials.py",
        "divisor * Poly2._of({key: q})",
        "divisor * Poly2({key: q})",
        ["tests/test_polynomials.py::TestExactDivision"],
    ),
    (
        "divide builds its quotient through the reader",
        "src/logpairs/polynomials.py",
        "return Poly2._of(quotient)",
        "return Poly2(quotient)",
        ["tests/test_polynomials.py::TestExactDivision"],
    ),
    (
        "divide_exact returns its quotient whatever the rest",
        "src/logpairs/polynomials.py",
        "return None if rest else quotient",
        "return quotient",
        ["tests/test_polynomials.py::TestExactDivision", "tests/test_polynomials.py::TestDivide"],
    ),
    (
        "integer evaluate wraps its sum in a Fraction",
        "src/logpairs/polynomials.py",
        "                return total\n",
        "                return Fraction(total)\n",
        ["tests/test_polynomials.py::TestIntegerEvaluate", "tests/test_experiments.py::TestSampling"],
    ),
    (
        "binomial row with r for r + 1",
        "src/logpairs/polynomials.py",
        "num * p * (r + 1)",
        "num * p * r",
        ["tests/test_polynomials.py::test_binomial_rows_match_the_closed_form"],
    ),
    # The number reader and its limits.
    (
        "digit bound off by one",
        "src/logpairs/polynomials.py",
        "_DIGITS_BOUND = 10**MAX_DIGITS",
        "_DIGITS_BOUND = 10 ** (MAX_DIGITS + 1)",
        READER,
    ),
    (
        "no int bound",
        "src/logpairs/polynomials.py",
        "if -_DIGITS_BOUND < text < _DIGITS_BOUND:",
        "if True:",
        READER,
    ),
    (
        "floats read by their binary value",
        "src/logpairs/polynomials.py",
        "    text = repr(value) if isinstance(value, float) else value\n",
        "    if isinstance(value, float):\n        return Fraction(value)\n    text = value\n",
        READER,
    ),
    (
        "an upper-case E ignored",
        "src/logpairs/polynomials.py",
        '"e" not in text and "E" not in text',
        '"e" not in text',
        READER,
    ),
    (
        "no exponent check",
        "src/logpairs/polynomials.py",
        "if short or not _exponent_too_large(text):",
        "if True:",
        # Not the rules test: without the check, its "0e99999999" builds
        # 10**99999999, which takes minutes.
        ["tests/test_polynomials.py::test_exponent_alone_refuses_a_literal_before_building_it"],
    ),
    (
        "exponent slack cut to MAX_DIGITS",
        "src/logpairs/polynomials.py",
        "abs(int(exponent)) > MAX_DIGITS + len(text)",
        "abs(int(exponent)) > MAX_DIGITS",
        READER,
    ),
    (
        "read_number takes a bool as an int",
        "src/logpairs/polynomials.py",
        "if isinstance(text, int) and not isinstance(text, bool):",
        "if isinstance(text, int):",
        [*READER, BOOL],
    ),
    (
        "places reads a bool as an int",
        "src/logpairs/places.py",
        "isinstance(q, (int, Fraction)) and not isinstance(q, bool)",
        "isinstance(q, (int, Fraction))",
        [BOOL],
    ),
    (
        "integer literals read without the ASCII test",
        "src/logpairs/polynomials.py",
        '(digits := text.removeprefix("-")).isascii() and digits.isdigit()',
        '(digits := text.removeprefix("-")).isdigit()',
        ["tests/test_polynomials.py::test_integer_literals_read_as_the_rational_route"],
    ),
    # The command line: argv dispatch, the exit-code rule and the --json writer.
    (
        "dispatch without its fallback to the top-level parser",
        "src/logpairs/cli.py",
        "build_parser().commands.get(argv[0]) if argv else None",
        "build_parser().commands[argv[0]]",
        ["tests/test_cli.py::test_usage_errors_exit_3_with_one_usage_and_one_error_line"],
    ),
    (
        "JSON writer indents by one space",
        "src/logpairs/cli.py",
        '    inner = indent + "  "\n    if isinstance(value, dict):',
        '    inner = indent + " "\n    if isinstance(value, dict):',
        [
            "tests/test_cli.py::test_json_output_is_the_indented_sorted_dump",
            "tests/test_cli.py::test_json_writer_matches_json_dumps",
        ],
    ),
    (
        "JSON proximity list in axis order",
        "src/logpairs/cli.py",
        "% (min(ax, ay), max(ax, ay))",
        "% (ax, ay)",
        ["tests/test_cli.py::test_resolve_curve_json_on_deep_trees"],
    ),
    (
        "main exits 0 whatever the payload's violations hold",
        "src/logpairs/cli.py",
        'return EXIT_VIOLATION if payload.get("violations") else EXIT_OK',
        "return EXIT_OK",
        ["tests/test_cli.py::test_gcd_family_violation_exit_code"],
    ),
    (
        "gcd-family keeps its violations as tuples",
        "src/logpairs/cli.py",
        '"violations": [list(v) for v in report.violations]',
        '"violations": report.violations',
        ["tests/test_cli.py::test_gcd_family_violation_exit_code", "tests/test_cli.py::test_stdout_is_byte_exact"],
    ),
    (
        "JSON errors narrowed to JSONDecodeError",
        "src/logpairs/cli.py",
        "except (ValueError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        ["tests/test_cli.py::test_malformed_input_exits_3"],
    ),
    # The SNC constructors and the edge memo.
    (
        "the edge minimum reads one endpoint twice",
        "src/logpairs/snc.py",
        "den - nums[i] - nums[j] for i, j in pairs",
        "den - nums[i] - nums[i] for i, j in pairs",
        ["tests/test_snc.py::TestIntegerRouteMatchesFractionFormula"],
    ),
    (
        "the edge check is kept for the last labels only",
        "src/logpairs/snc.py",
        "@functools.lru_cache(maxsize=1)\ndef _edge_index(",
        _memo_keyed_by("labels, edges", "labels") + "def _edge_index(",
        [EDGE_MEMO],
    ),
    (
        "the edge check is kept for the last edges only",
        "src/logpairs/snc.py",
        "@functools.lru_cache(maxsize=1)\ndef _edge_index(",
        _memo_keyed_by("labels, edges", "edges") + "def _edge_index(",
        [EDGE_MEMO],
    ),
    (
        "_check_table takes a bool den",
        "src/logpairs/snc.py",
        "if type(den) is not int or den < 1:",
        "if not isinstance(den, int) or den < 1:",
        ["tests/test_snc.py::TestValidation::test_rejections_are_typed"],
    ),
    (
        "HomogPoly takes a bool exponent",
        "src/logpairs/heights.py",
        "if type(e) is not int or e < 0:",
        "if not isinstance(e, int) or e < 0:",
        ["tests/test_constructors.py::test_constructor_and_parser_reject_alike"],
    ),
    # Heights and the height-law experiments.
    (
        "normalize_point without its sign fix",
        "src/logpairs/heights.py",
        "    if (ints[0] or next(c for c in ints if c)) < 0:\n        g = -g\n",
        "",
        ["tests/test_heights.py::TestNormalizePoint"],
    ),
    (
        "mdlaw_records skips the gcd reduction of Q",
        "src/logpairs/experiments.py",
        "        k = math.gcd(num, den)\n",
        "        k = 1\n",
        ["tests/test_experiments.py"],
    ),
    (
        "weil_local tests its prime again",
        "src/logpairs/heights.py",
        "val = _finite_valuation(Z, x, v.prime)",
        "val = weil_finite_valuation(Z, x, v.prime)",
        ["tests/test_heights.py::TestWeilLocal"],
    ),
    (
        "the high-height window leaves out h == h_min",
        "src/logpairs/experiments.py",
        "for r in records if r.h >= h_min]",
        "for r in records if r.h > h_min]",
        ["tests/test_experiments.py::TestMdlaw::test_samples_high_counts_the_window"],
    ),
    (
        "ParamCurve takes a target outside the plane",
        "src/logpairs/experiments.py",
        "        if self.target.num_vars != 3:\n"
        '            raise InputError("target curve must live in the projective plane")\n',
        "",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve's Euclid keeps the quotient",
        "src/logpairs/experiments.py",
        "g, h = h, g.divide(h)[1]",
        "g, h = h, g.divide(h)[0]",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve's Euclid takes one division step",
        "src/logpairs/experiments.py",
        "            while h:\n",
        "            if h:\n",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve misses the common factor s",
        "src/logpairs/experiments.py",
        "if g.total_degree() or all((0, d) not in f.terms for f in forms):",
        "if g.total_degree():",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve's bound leaves out the norm of p2",
        "src/logpairs/experiments.py",
        "math.prod(map(pow, norms, exps))",
        "math.prod(map(pow, norms[:2], exps))",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve's bound leaves out the target's coefficients",
        "src/logpairs/experiments.py",
        "abs(c) * math.prod(",
        "math.prod(",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve never checks the identity's bits",
        "src/logpairs/experiments.py",
        "        if d * self.target.degree * log_c > MAX_IDENTITY_BITS:\n",
        "        if False:\n",
        [IDENTITY_BITS],
    ),
    (
        "ParamCurve's bit estimate leaves out the target's degree",
        "src/logpairs/experiments.py",
        "if d * self.target.degree * log_c >",
        "if d * log_c >",
        [IDENTITY_BITS],
    ),
    (
        "ParamCurve's bit estimate leaves out the number of terms",
        "src/logpairs/experiments.py",
        "log_c = math.log2(2 * len(terms)) + max(",
        "log_c = max(",
        [IDENTITY_BITS],
    ),
    (
        "ParamCurve tests the identity at a fixed small point",
        "src/logpairs/experiments.py",
        "f.evaluate(1, t) for f in forms",
        "f.evaluate(1, 3) for f in forms",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    (
        "ParamCurve takes forms of degree 0",
        "src/logpairs/experiments.py",
        "if len(degrees) != 1 or 0 in degrees:",
        "if len(degrees) != 1:",
        ["tests/test_experiments.py::TestParamCurve"],
    ),
    # The sample memo: a hit needs an equal curve and an equal bound.
    (
        "the sample memo serves a stored sample for another bound",
        "src/logpairs/experiments.py",
        "@functools.lru_cache(maxsize=1, typed=True)\n",
        _memo_keyed_by("pc, bound", "pc"),
        [SAMPLE_MEMO],
    ),
    (
        "the sample memo serves a stored sample for another curve",
        "src/logpairs/experiments.py",
        "@functools.lru_cache(maxsize=1, typed=True)\n",
        _memo_keyed_by("pc, bound", "bound"),
        [SAMPLE_MEMO],
    ),
    (
        "the sample memo takes True for 1",
        "src/logpairs/experiments.py",
        "@functools.lru_cache(maxsize=1, typed=True)\n",
        "@functools.lru_cache(maxsize=1)\n",
        [f"{SAMPLE_MEMO}::test_a_float_bound_behaves_as_without_the_memo"],
    ),
    (
        "sampling reads its bound without the number reader",
        "src/logpairs/experiments.py",
        '    bound = exact_int(bound, "bound", BadRangeError)\n',
        "",
        [f"{SAMPLE_MEMO}::test_a_float_bound_behaves_as_without_the_memo"],
    ),
    (
        "sampling keeps the last pair of an image",
        "src/logpairs/experiments.py",
        "first.setdefault(pt, (p, q))",
        "first[pt] = (p, q)",
        ["tests/test_experiments.py::TestSampling"],
    ),
    (
        "ProjPoint takes coords that are not a tuple",
        "src/logpairs/heights.py",
        "        if not isinstance(coords, tuple):\n",
        "        if False:\n",
        ["tests/test_heights.py::TestNormalizePoint"],
    ),
    (
        "gcd_bounds_check blames the filter for an empty sample",
        "src/logpairs/experiments.py",
        "    if not points:\n"
        '        raise InputError("cannot build a report from an empty sample")\n',
        "",
        [
            "tests/test_experiments.py::TestGcdBounds",
            "tests/test_cli.py::test_gcd_bounds_reports_an_empty_sample_at_any_delta",
        ],
    ),
    (
        "no check that the target has positive degree",
        "src/logpairs/experiments.py",
        "    if target.degree < 1:\n"
        '        raise InputError("target curve must have positive degree")\n',
        "",
        ["tests/test_experiments.py::TestGcdBounds"],
    ),
]


def _pytest(copy: Path, tests: list[str], limit: float) -> tuple[int | None, str]:
    """pytest's exit code for ``tests`` in ``copy``, importing its own src, or
    None when the run takes more than ``limit`` seconds and is stopped; and
    its output, up to the stop.  No bytecode is cached: a restored file can
    share its mutant's size and modification second."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(
            command, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=limit
        )
        code, out = run.returncode, run.stdout
    except subprocess.TimeoutExpired as stopped:
        code, out = None, stopped.stdout
    return code, (out or b"").decode(errors="replace")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out")
        shutil.copytree(ROOT, copy, ignore=skip)
        baseline = sorted({t for m in chosen for t in m[4]})
        start = time.monotonic()
        code, out = _pytest(copy, baseline, BASELINE_LIMIT)
        if code != 0:
            why = f"take more than {BASELINE_LIMIT} s" if code is None else "fail"
            print(f"the named tests {why} on the unmutated copy; the end of pytest's output:")
            print(*out.splitlines()[-TAIL:], sep="\n")
            return 2
        limit = max(MIN_LIMIT, LIMIT_FACTOR * (time.monotonic() - start))
        killed = not_run = stale = 0
        for name, file, old, new, tests in chosen:
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"stale     {name}: the old text is not in {file} exactly once")
                stale += 1
                continue
            path.write_text(original.replace(old, new))
            try:
                code = _pytest(copy, tests, limit)[0]
            finally:
                path.write_text(original)
            if code is None:
                verdict = "killed (timed out)"
            elif code == 1:
                verdict = "killed"
            elif code in NOT_RUN:
                verdict = f"NOT RUN (pytest exit {code}: {NOT_RUN[code]})"
                not_run += 1
            else:
                verdict = f"SURVIVED (pytest exit {code})"
            killed += code in (None, 1)
            print(f"{verdict:9} {name}")
    print(f"{killed} of {len(chosen)} mutants killed, {not_run} not run, {stale} stale")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
