"""The CLI's lazy-import table, the README's library example, CLI lines and preset flag lists, and the mutant table."""

import ast
import importlib
import importlib.util
import re
import shlex
from pathlib import Path

import pytest

import longtail
from longtail import cli
import mutants

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ("analysis", "chartdata", "cli", "experiments", "inventory", "model", "svgplot")


def test_every_name_the_cli_binds_is_lazy_and_the_package_binds_none():
    # cli.LAZY is the one table of lazily imported names: each _bind argument
    # and each name perfbench's tracer wraps on cli resolves through it
    source = Path(cli.__file__).read_text(encoding="utf-8")
    bound = {
        arg.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_bind"
        for arg in node.args
    }
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {attr for sites in tracing.SITES.values() for module, attr in sites if module == "cli"} - {"main"}
    assert traced <= bound == set(cli.LAZY)
    for name, module in cli.LAZY.items():
        assert getattr(cli, name) is getattr(importlib.import_module(module), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    # the package re-exports nothing: its names are the version and the error class
    assert not set(cli.LAZY) & set(vars(longtail))
    assert {name for name in vars(longtail) if not name.startswith("_")} <= {"InsufficientDataError", *MODULES}
    assert longtail.analysis.InsufficientDataError is longtail.InsufficientDataError  # defined without numpy


def test_readme_library_example_runs():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_readme_cli_lines_parse_and_resolve():
    # every command line the README shows is parsed and resolved, not run, so a
    # renamed or removed flag fails here while the docs still show it
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    lines = [line.split("#", 1)[0] for block in blocks for line in block.splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("longtail ")]
    assert len(argvs) >= 8
    for argv in argvs:
        passed = vars(cli._build_parser().parse_args(argv))
        cli._resolve(passed.pop("command"), passed)


def test_readme_lists_the_flags_each_preset_reads():
    # the README's per-preset flag lists, against READS, which the presets' signatures state
    lists = re.findall(r"^ *\* `(\w+)`: `(--[^`]+)`", README.read_text(encoding="utf-8"), re.M)
    assert {figure: tuple(flag[2:].replace("-", "_") for flag in flags.split()) for figure, flags in lists} == cli.READS


def test_every_mutant_text_occurs_exactly_once():
    # tests/mutants.py runs the mutants in CI; this catches a row whose text an
    # edit changed in the Tier-1 run, and pins the runner's refusal of a text
    # that occurs zero or several times
    for mutant in mutants.MUTANTS:
        mutants.mutate((ROOT / mutant.path).read_text(encoding="utf-8"), mutant)
    with pytest.raises(ValueError, match="occurs 0 times, not once"):
        mutants.mutate("", mutant)
    with pytest.raises(ValueError, match="occurs 2 times, not once"):
        mutants.mutate(mutant.text * 2, mutant)
