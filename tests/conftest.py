"""Test modules import the references kept in other test modules by their
bare names (``from test_piece_rules import ref_components``).  pytest's
default import mode puts this directory on sys.path for them; putting it
there here does the same under ``--import-mode=importlib``.

Every RuntimeWarning raised while a test of this directory runs is an
error: numpy prints one for a division by zero, an overflow or a NaN that
the library was meant to guard.  Tests collected from other directories
in the same session keep their own warning filters."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def pytest_collection_modifyitems(config, items):
    for item in items:
        if HERE in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
