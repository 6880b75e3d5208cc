"""The package's public name list: every entry resolves, none repeats."""

import mazecells


def test_every_public_name_resolves():
    missing = [name for name in mazecells.__all__ if not hasattr(mazecells, name)]
    assert missing == []


def test_no_public_name_repeats():
    assert len(set(mazecells.__all__)) == len(mazecells.__all__)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from mazecells import *", ns)
    assert set(mazecells.__all__) <= set(ns)
