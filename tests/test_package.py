"""The package surface: every public name resolves, once, to the object its
defining submodule holds, however it is reached."""

import importlib

import pytest

import ltlkit

PUBLIC = [name for name in ltlkit.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_the_object_its_defining_module_holds(name):
    value = getattr(ltlkit, name)
    defining = importlib.import_module(value.__module__)
    assert defining.__name__.startswith("ltlkit.")
    assert getattr(defining, name) is value


def test_all_has_no_duplicates_and_includes_the_version():
    assert len(ltlkit.__all__) == len(set(ltlkit.__all__))
    assert "__version__" in ltlkit.__all__


def test_a_resolved_name_is_kept_on_the_package():
    value = ltlkit.parse
    assert vars(ltlkit)["parse"] is value


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ltlkit import *", namespace)
    assert set(ltlkit.__all__) <= set(namespace)
    assert namespace["plan"] is ltlkit.plan


def test_dir_lists_every_name():
    assert set(ltlkit.__all__) <= set(dir(ltlkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'ltlkit' has no attribute 'nope'"):
        ltlkit.nope
    with pytest.raises(ImportError):
        exec("from ltlkit import nope", {})
