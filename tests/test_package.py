"""The package's export list and the README's library example."""

import re
import types
from pathlib import Path

import pytest

import longtail


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
    with pytest.raises(AttributeError, match="no_such_name"):
        longtail.no_such_name


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})
