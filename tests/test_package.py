"""The package's export list."""

import types

import longtail


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(longtail).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(longtail.__all__) == public
    namespace = {}
    exec("from longtail import *", namespace)
    assert set(longtail.__all__) <= set(namespace)
