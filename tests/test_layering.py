"""Each module of the package imports only public names from its siblings."""

import ast
from pathlib import Path

import dualrail

SOURCES = sorted(Path(dualrail.__file__).parent.glob("*.py"))


def private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for alias in node.names if alias.name.startswith("_")]


def test_sources_found():
    assert {"chain_core.py", "scheduler.py", "protocol.py"} <= {p.name for p in SOURCES}


def test_no_private_name_crosses_a_module():
    assert [line for path in SOURCES for line in private_imports(path)] == []
