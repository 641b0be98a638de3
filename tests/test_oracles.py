"""The oracles stay independent of the code they cross-check."""

from __future__ import annotations

import ast
from pathlib import Path

# the names oracles.py may take from the library: constants, not code paths
LIBRARY_CONSTANTS = {"RESIDUAL_BOUND", "COMMANDS", "Command"}


def test_oracles_import_only_constants_from_the_library():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "gptraj"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gptraj":
            imported |= {a.name for a in node.names}
    assert imported <= LIBRARY_CONSTANTS, sorted(imported - LIBRARY_CONSTANTS)
