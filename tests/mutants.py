"""Rerun the mutants that the tests are known to kill.

Each entry of MUTANTS is (name, file, old text, new text, tests).  For each,
the script applies the edit to a temporary copy of the repository, runs the
named tests there with pytest, and calls the mutant killed when they fail
(pytest exit code 1).  Before that it runs every named test on the unmutated
copy, which must pass.  The old text must occur exactly once in its file, so
an edit that no longer applies is reported as stale, not silently skipped.

Usage: ``python tests/mutants.py [name ...]`` runs all mutants, or only the
named ones; it exits 0 when every mutant run is killed.  It is not a pytest
module and Tier-1 does not run it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = "tests/test_resolution_oracles.py"
RUNS = f"{ORACLES}::TestRuns"
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
        [f"{ORACLES}::TestCurvettes"],
    ),
    (
        "run length + 1",
        "src/logpairs/curves.py",
        "(i + j - m) // (m - j) + 1 for",
        "(i + j - m) // (m - j) + 2 for",
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
        "JSON errors narrowed to JSONDecodeError",
        "src/logpairs/cli.py",
        "except (ValueError, RecursionError) as exc:",
        "except json.JSONDecodeError as exc:",
        ["tests/test_cli.py::test_malformed_input_exits_3"],
    ),
    # Heights and the height-law experiments.
    (
        "weil_local tests its prime again",
        "src/logpairs/heights.py",
        "val = _finite_valuation(Z, x, v.prime)",
        "val = weil_finite_valuation(Z, x, v.prime)",
        ["tests/test_heights.py::TestWeilLocal"],
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


def _pytest(copy: Path, tests: list[str]) -> int:
    """pytest's exit code for ``tests`` in ``copy``, importing its own src.
    No bytecode is cached: a restored file can share its mutant's size and
    modification second."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=600).returncode


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
        if _pytest(copy, baseline) != 0:
            print("the named tests fail on the unmutated copy")
            return 2
        killed = 0
        for name, file, old, new, tests in chosen:
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                print(f"stale     {name}: the old text is not in {file} exactly once")
                continue
            path.write_text(original.replace(old, new))
            try:
                code = _pytest(copy, tests)
            finally:
                path.write_text(original)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            killed += code == 1
            print(f"{verdict:9} {name}")
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
