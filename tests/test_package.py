"""Package-level tests: the public name list, dead imports, README's examples.

README's command lines are only parsed, with the CLI's own parser, so no
example writes a file here; its library sketch is run.
"""

import ast
import importlib
import re
import shlex
import types
import warnings
from pathlib import Path

import pytest

import cslrad
from cslrad import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SOURCES = sorted(Path(cslrad.__file__).parent.glob("*.py"))


def test_all_lists_exactly_the_public_names():
    assert [name for name in cslrad.__all__ if not hasattr(cslrad, name)] == []
    public = {name for name, value in vars(cslrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(cslrad.__all__) == set()


def top_level_definitions(source: str) -> set[str]:
    """The names a module's own top-level statements define."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_public_name_is_its_defining_modules_object():
    for module_name in sorted(set(cslrad._MODULE_OF.values())):
        module = importlib.import_module(f"cslrad.{module_name}")
        source = Path(module.__file__).read_text(encoding="utf-8")
        defined = top_level_definitions(source)
        names = [n for n in cslrad.__all__ if cslrad._MODULE_OF[n] == module_name]
        assert [n for n in names if n not in defined] == []
        assert [n for n in names if getattr(cslrad, n) is not getattr(module, n)] == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cslrad.nope  # noqa: B018
    assert set(cslrad.__all__) <= set(dir(cslrad))


def unused_imports(source: str) -> list[str]:
    """The names an import binds and its scope never uses, as "line: name".

    A module-level import may be used anywhere in the module, one inside a
    function only in that function.  Names listed in __all__, and imports
    on a line marked "# noqa: F401", count as used.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and not isinstance(node.value, ast.Call)):  # a computed list names no import
            exported = set(ast.literal_eval(node.value))
    unused = []
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in iter_own_nodes(scope):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = any("# noqa: F401" in lines[i]
                         for i in range(node.lineno - 1, node.end_lineno))
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported and not marked:
                    unused.append(f"{node.lineno}: {name}")
    return sorted(unused)


def iter_own_nodes(scope):
    """The nodes of scope that no nested function holds."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_what_it_should():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from os import path, sep\n"
              "from json import dumps  # noqa: F401\n"
              "from re import compile\n"
              "__all__ = ['compile']\n"
              "def f():\n"
              "    import numpy as np\n"
              "    return sep\n"
              "def g():\n"
              "    return np\n")
    assert unused_imports(source) == ["2: math", "3: path", "8: np"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names no source refers to, as "module: name".

    sources maps module names to their text.  A reference is a name read,
    an attribute or an imported name, in any of the sources; storing to a
    name is not one.  Dunder names count as used.
    """
    used = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{module}: {name}" for module, source in sources.items()
                  for name in top_level_definitions(source)
                  if name.startswith("_") and not name.endswith("__")
                  and name not in used)


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_private_names(sources) == []


def test_unused_private_name_check_finds_what_it_should():
    sources = {"a": ("_read = 1\n"
                     "_imported = 2\n"
                     "_attribute = 3\n"
                     "_stored: int = 4\n"
                     "_stored = 5\n"
                     "__dunder__ = 6\n"
                     "public = 7\n"
                     "def _unused():\n"
                     "    return public\n"
                     "class _Unused:\n"
                     "    pass\n"
                     "print(_read)\n"),
               "b": ("from .a import _imported\n"
                     "from . import a\n"
                     "public = a._attribute\n")}
    assert unused_private_names(sources) == ["a: _Unused", "a: _stored", "a: _unused"]


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
