"""Every name a module exports resolves: no export outlives its code."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["seqspace", "operators", "orbits", "ergodic", "jdlg",
                                  "gallery"])
def test_all_names_resolve(name):
    mod = importlib.import_module(f"orbitlab.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
