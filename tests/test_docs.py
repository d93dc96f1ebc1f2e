"""The README's examples run: the library example prints what its comments
say, and every command-line example exits 0.  Its limits list names every
limit."""

import contextlib
import importlib
import io
import json
import pkgutil
import re
import shlex
from pathlib import Path

import logpairs
from logpairs import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = _library_example()
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    assert expected, "the example states no printed value"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _shell_commands() -> list[list[str]]:
    """The argv of every command in the README's command-line block; comment
    lines are dropped and continued or multi-line quoted commands joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands, pending = [], ""
    for line in block.splitlines():
        pending += line + "\n"
        try:
            argv = shlex.split(pending, comments=True)
        except ValueError:  # a quote that closes on a later line
            continue
        if argv:
            commands.append(argv)
        pending = ""
    return commands


def test_command_line_examples_exit_0(tmp_path, monkeypatch, capsys):
    section = README.read_text().split("## Command line", 1)[1]
    (tmp_path / "param.json").write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    monkeypatch.chdir(tmp_path)
    commands = _shell_commands()
    assert [argv[:2] for argv in commands] == [
        ["logpairs", name]
        for name in ("height-eval", "classify-snc", "resolve-curve", "member", "mdlaw", "gcd-family", "gcd-bounds")
    ]
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        out = capsys.readouterr().out
        if "--h-min" in argv:
            # The example's high-height window holds samples.
            payload = json.loads(out)
            assert payload["samples_high"] > 0 and payload["max_abs_residual_high"] > 0


def test_every_limit_is_in_the_limits_list():
    # A limit is a module-level MAX_* constant of a logpairs module.
    names = {
        name
        for info in pkgutil.iter_modules(logpairs.__path__)
        for name in vars(importlib.import_module(f"logpairs.{info.name}"))
        if name.startswith("MAX_")
    }
    assert {"MAX_DEGREE", "MAX_DEPTH", "MAX_SAMPLE_BOUND"} <= names
    limits = README.read_text().split("The work of a run is bounded.", 1)[1].split("```", 1)[0]
    assert [name for name in sorted(names) if not re.search(rf"\b{name}\b", limits)] == []
