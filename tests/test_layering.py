"""Each module of the package imports only public names from its siblings.

A run state's private attributes belong to ``protocol``: no other module reads
or writes them.
"""

import ast
from pathlib import Path

import dualrail
from dualrail.chain_core import ChainSpec, build_sector_hamiltonian, diagonalize
from dualrail.protocol import DualRailState

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


def state_private_names():
    state = DualRailState(diagonalize(build_sector_hamiltonian(ChainSpec(3))))
    return {name for name in vars(state) if name.startswith("_")}


def private_state_uses(path, names):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in names
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


def test_state_has_private_attributes():
    assert {"_receiver", "_rates", "_weight", "_pending_interval"} <= state_private_names()


def test_only_protocol_touches_a_run_states_internals():
    names = state_private_names()
    assert [line for path in SOURCES if path.name != "protocol.py"
            for line in private_state_uses(path, names)] == []
