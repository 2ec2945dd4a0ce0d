"""Test modules import the references kept in other test modules by their
bare names (``from test_piece_rules import ref_components``).  pytest's
default import mode puts this directory on sys.path for them; putting it
there here does the same under ``--import-mode=importlib``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
