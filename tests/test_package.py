"""Package-level tests: the public name list and README's examples.

README's command lines are only parsed, with the CLI's own parser, so no
example writes a file here; its library sketch is run.
"""

import re
import shlex
import types
import warnings
from pathlib import Path

import pytest

import cslrad
from cslrad import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_all_lists_exactly_the_public_names():
    assert [name for name in cslrad.__all__ if not hasattr(cslrad, name)] == []
    public = {name for name, value in vars(cslrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(cslrad.__all__) == set()


def readme_command_lines():
    """Each `cslrad ...` line of README's sh blocks, with continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "cslrad":
                commands.append(argv[1:])
    return commands


def test_readme_command_lines_parse():
    parser = cli.build_parser()
    commands = readme_command_lines()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: cslrad {shlex.join(argv)}")
    # every subcommand has an example
    assert {argv[0] for argv in commands} == {
        "limit", "exclusion", "signal", "shape", "rate", "efficiency", "regime"}


def test_readme_library_sketch_runs_quietly():
    section = README.split("## Library sketch", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})
