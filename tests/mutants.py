"""Rerun the mutants that the tests are known to kill.

Each entry of MUTANTS is (name, file, old text, new text, tests).  For each,
the script applies the edit to a temporary copy of the repository, runs the
named tests there with pytest, and calls the mutant killed when they fail
(pytest exit code 1).  Before that it runs every named test on the unmutated
copy, which must pass within BASELINE_LIMIT seconds.  Each mutant's run then
has its own time limit, LIMIT_FACTOR times that baseline's duration and at
least MIN_LIMIT seconds; a mutant that outlasts it (say, one that makes a
loop endless) is stopped and reported "killed (timed out)".  The old text
must occur exactly once in its file, so an edit that no longer applies is
reported as stale, not silently skipped.

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
LIMIT_FACTOR = 3
MIN_LIMIT = 60
READER = [
    "tests/test_polynomials.py::test_read_number_rules",
    "tests/test_polynomials.py::test_read_number_reads_a_float_as_its_repr",
    "tests/test_polynomials.py::test_exponent_alone_refuses_a_literal_before_building_it",
]

MUTANTS = [
    # Resolution: chart shifts, runs of forced centers, the proximity recursion.
    (
        "replay mirrors every chart shift",
        "src/logpairs/curves.py",
        "local[node.parent].blowup_x(node.shift)[0]",
        "local[node.parent].blowup_x(-node.shift)[0]",
        [f"{ORACLES}::TestCurvettes", f"{ORACLES}::TestChangeOfCoordinates"],
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
        "transformed.terms if j < m)])",
        "transformed.terms if j < m - 1)])",
        [RUNS],
    ),
    (
        "run substitution one step short",
        "src/logpairs/curves.py",
        "{(i + run * (j - m), j)",
        "{(i + (run - 1) * (j - m), j)",
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
        "if frozenset((anc, node.id)) not in separated",
        "",
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
    # Polynomials: exact division and the integer evaluate path.
    (
        "divide_exact builds each step's monomial through the reader",
        "src/logpairs/polynomials.py",
        "divisor * Poly2._of({key: q})",
        "divisor * Poly2({key: q})",
        ["tests/test_polynomials.py::TestExactDivision"],
    ),
    (
        "divide_exact builds its quotient through the reader",
        "src/logpairs/polynomials.py",
        "return Poly2._of(quotient)",
        "return Poly2(quotient)",
        ["tests/test_polynomials.py::TestExactDivision"],
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
        "no check that the target has positive degree",
        "src/logpairs/experiments.py",
        "    if target.degree < 1:\n"
        '        raise InputError("target curve must have positive degree")\n',
        "",
        ["tests/test_experiments.py::TestGcdBounds"],
    ),
]


def _pytest(copy: Path, tests: list[str], limit: float) -> int | None:
    """pytest's exit code for ``tests`` in ``copy``, importing its own src, or
    None when the run takes more than ``limit`` seconds and is stopped.  No
    bytecode is cached: a restored file can share its mutant's size and
    modification second."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=limit).returncode
    except subprocess.TimeoutExpired:
        return None


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
        code = _pytest(copy, baseline, BASELINE_LIMIT)
        if code != 0:
            why = f"take more than {BASELINE_LIMIT} s" if code is None else "fail"
            print(f"the named tests {why} on the unmutated copy")
            return 2
        limit = max(MIN_LIMIT, LIMIT_FACTOR * (time.monotonic() - start))
        killed = 0
        for name, file, old, new, tests in chosen:
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"stale     {name}: the old text is not in {file} exactly once")
                continue
            path.write_text(original.replace(old, new))
            try:
                code = _pytest(copy, tests, limit)
            finally:
                path.write_text(original)
            if code is None:
                verdict = "killed (timed out)"
            else:
                verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            killed += code in (None, 1)
            print(f"{verdict:9} {name}")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
