"""The package's export list."""

import types

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
