"""The mutant runner says why its baseline run failed: it prints the end of
pytest's output, not only its verdict.  Every mutant it knows still applies
to the source and names tests that exist, checked here without running it."""

import importlib.util
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "mutants.py"
TEST = '''from m import VALUE


def test_value():
    assert VALUE == 2, "the baseline broke here"
'''


def _runner():
    spec = importlib.util.spec_from_file_location("mutant_runner", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def _runner_on(root: Path, monkeypatch):
    runner = _runner()
    (root / "src").mkdir()
    (root / "src" / "m.py").write_text("VALUE = 1\n")
    (root / "test_m.py").write_text(TEST)
    monkeypatch.setattr(runner, "ROOT", root)
    monkeypatch.setattr(runner, "MUTANTS", [("one", "src/m.py", "VALUE = 1", "VALUE = 2", ["test_m.py"])])
    return runner


def test_a_failing_baseline_prints_the_end_of_pytest_output(tmp_path, monkeypatch, capsys):
    runner = _runner_on(tmp_path, monkeypatch)
    monkeypatch.setattr(runner, "TAIL", 3)
    assert runner.main([]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("the named tests fail on the unmutated copy")
    assert len(lines) == 4
    assert lines[1] == "FAILED test_m.py::test_value - AssertionError: the baseline broke here"
    assert lines[3].startswith("1 failed")


def test_a_baseline_that_times_out_is_reported(tmp_path, monkeypatch, capsys):
    runner = _runner_on(tmp_path, monkeypatch)
    (tmp_path / "test_m.py").write_text("import time\n\n\ndef test_value():\n    time.sleep(30)\n")
    monkeypatch.setattr(runner, "BASELINE_LIMIT", 2)
    assert runner.main([]) == 2
    assert capsys.readouterr().out.startswith("the named tests take more than 2 s on the unmutated copy")


def test_every_mutant_applies_once_and_names_tests_that_exist():
    # The runner reports an edit that no longer applies as stale, but only in
    # its own long run; a change that rewrites a mutated line fails here.
    runner = _runner()
    names = [name for name, *_ in runner.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new, tests in runner.MUTANTS:
        assert old != new, name
        assert (runner.ROOT / file).read_text().count(old) == 1, f"{name}: the old text is not in {file} exactly once"
        for test in tests:
            path, *parts = test.split("::")
            assert (runner.ROOT / path).is_file(), f"{name}: no test file {path}"
            text = (runner.ROOT / path).read_text()
            assert all(part in text for part in parts), f"{name}: {test} is not in {path}"
