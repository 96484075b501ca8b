"""The package's export list and the README's library example and CLI lines."""

import re
import shlex
import types
from pathlib import Path

import pytest

import longtail
from longtail import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_every_public_name():
    namespace = {}
    exec("from longtail import *", namespace)  # resolves every lazily imported name
    assert set(longtail.__all__) <= set(namespace)
    public = {
        name
        for name, value in vars(longtail).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(longtail.__all__) == public
    assert set(longtail.__all__) <= set(dir(longtail))
    assert longtail.run is longtail.model.run
    assert longtail.analysis.InsufficientDataError is longtail.InsufficientDataError  # defined without numpy
    with pytest.raises(AttributeError, match="no_such_name"):
        longtail.no_such_name


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
