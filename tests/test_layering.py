"""Each module of the package imports only public names from its siblings, each from its owner.

A run state's private attributes belong to ``protocol``: no other module reads
or writes them.  A spectrum's N x N ``modes`` have one reader,
``chain_core.transition_amplitude``; everything else needs only the end rows.
Every refined scan steps at ``chain_core.SCAN_STEP``.  The CLI has one
writer, ``cli.main``: its commands return their text and exit code, and it
parses every call with the one parser built at import.  One function,
``analysis._forked_map``, starts processes.
"""

import argparse
import ast
import importlib
from pathlib import Path

import dualrail
from dualrail import cli
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


def borrowed_imports(filename, source):
    """``from .module import name`` lines whose object is defined in a module other than ``module``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"dualrail.{node.module}")
            for alias in node.names:
                owner = getattr(getattr(module, alias.name), "__module__", module.__name__)
                if owner != module.__name__:
                    found.append(f"{filename}:{node.lineno}: {alias.name} from .{node.module}, owner {owner}")
    return found


def test_each_name_is_imported_from_its_owner():
    assert [line for path in SOURCES
            for line in borrowed_imports(path.name, path.read_text(encoding="utf-8"))] == []


def test_a_re_exported_name_is_flagged():
    assert borrowed_imports("m.py", "from .noise import NoiseParams, p_infinity_exact\n") == [
        "m.py:1: NoiseParams from .noise, owner dualrail.protocol"]


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


def modes_readers(path):
    """``module.function`` for each function of ``path`` that reads an attribute named ``modes``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted({f"{path.stem}.{func.name}"
                   for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Attribute) and node.attr == "modes"})


def test_only_transition_amplitude_reads_the_modes():
    assert [reader for path in SOURCES
            for reader in modes_readers(path)] == ["chain_core.transition_amplitude"]


def off_step_scans(filename, source):
    """``module.function`` for each function whose ``PhaseGrid(...)`` call passes a step
    other than ``SCAN_STEP`` from ``chain_core``, the one step of every refined scan."""
    tree = ast.parse(source, filename=filename)
    stem = filename.removesuffix(".py")
    imported = stem == "chain_core" or any(
        isinstance(node, ast.ImportFrom) and node.module == "chain_core"
        and any(alias.name == "SCAN_STEP" and alias.asname is None for alias in node.names)
        for node in ast.walk(tree))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and "PhaseGrid" in (
                    getattr(call.func, "id", None), getattr(call.func, "attr", None))):
                continue
            # the step is PhaseGrid's last parameter: by keyword, else the last positional
            step = next((kw.value for kw in call.keywords if kw.arg == "step"), call.args[-1])
            if not (imported and isinstance(step, ast.Name) and step.id == "SCAN_STEP"):
                found.add(f"{stem}.{func.name}")
    return sorted(found)


def test_every_refined_scan_steps_at_scan_step():
    # the amplitude command's step is the user's --dt
    assert [scan for path in SOURCES
            for scan in off_step_scans(path.name, path.read_text(encoding="utf-8"))] == [
        "cli._cmd_amplitude"]


def test_an_off_step_scan_is_flagged():
    source = ("from .chain_core import PhaseGrid, SCAN_STEP\n"
              "def ok(e): return PhaseGrid(e, *window(e), SCAN_STEP)\n"
              "def literal(e): return PhaseGrid(e, 0.0, 1.0, 0.01)\n"
              "def keyword(e): return chain_core.PhaseGrid(e, 0.0, 1.0, step=_GRID_STEP)\n")
    assert off_step_scans("m.py", source) == ["m.keyword", "m.literal"]
    assert off_step_scans("m.py", source.replace("SCAN_STEP\n", "SCAN_STEP as S\n", 1)) == [
        "m.keyword", "m.literal", "m.ok"]


def writers(filename, source):
    """``module.function`` for each function that calls ``print``, ``write_text`` or
    ``sys.stdout.write`` / ``sys.stderr.write``."""
    def writes(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in ("print", "write_text")
        if not isinstance(func, ast.Attribute):
            return False
        stream = func.value
        return func.attr == "write_text" or (
            func.attr == "write" and isinstance(stream, ast.Attribute)
            and stream.attr in ("stdout", "stderr")
            and isinstance(stream.value, ast.Name) and stream.value.id == "sys")

    stem = filename.removesuffix(".py")
    return sorted({f"{stem}.{func.name}"
                   for func in ast.walk(ast.parse(source, filename=filename))
                   if isinstance(func, ast.FunctionDef)
                   for call in ast.walk(func) if isinstance(call, ast.Call) and writes(call)})


def test_main_is_the_clis_one_writer():
    path = Path(dualrail.__file__).parent / "cli.py"
    assert writers(path.name, path.read_text(encoding="utf-8")) == ["cli.main"]


def test_a_second_writer_is_flagged():
    source = ("import sys\n"
              "def main(): sys.stdout.write(run())\n"
              "def run(): return 'text'\n"
              "def log(m): print(m, file=sys.stderr)\n"
              "def err(m): sys.stderr.write(m)\n"
              "def save(p, t): _csvio.write_text(p, t)\n"
              "def emit(t, out): write_text(out, t) if out else sys.stdout.write(t)\n"
              "def other(f, t): f.write(t)\n")
    assert writers("m.py", source) == ["m.emit", "m.err", "m.log", "m.main", "m.save"]


def test_main_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert [cli.main(["optimize", "--n", "4", "--l-max", "2"]),
            cli.main(["optimize", "--n", "4", "--bogus"]),
            cli.main(["optimize", "--n", "5", "--l-max", "1"])] == [0, 2, 0]
    assert built == []
    capsys.readouterr()


PROCESS_MODULES = {"multiprocessing", "concurrent", "subprocess", "pty"}
OS_PROCESS_CALLS = ("fork", "spawn", "posix_spawn", "system", "popen")


def process_starters(filename, source):
    """``module.function`` (``module`` for module-level code) for each place that imports a
    process module or calls, or imports from ``os``, a function that starts a process."""
    stem = filename.removesuffix(".py")
    found = set()

    def starts(node):
        if isinstance(node, ast.Import):
            return any(alias.name.split(".")[0] in PROCESS_MODULES for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            return node.module.split(".")[0] in PROCESS_MODULES or node.module == "os" and any(
                alias.name.startswith(OS_PROCESS_CALLS) for alias in node.names)
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                and node.func.attr.startswith(OS_PROCESS_CALLS))

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{stem}.{node.name}"
        if starts(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename=filename), stem)
    return sorted(found)


def test_forked_map_is_the_one_process_starter():
    assert [place for path in SOURCES
            for place in process_starters(path.name, path.read_text(encoding="utf-8"))] == [
        "analysis._forked_map"]


def test_a_second_process_starter_is_flagged():
    source = ("import os\n"
              "import multiprocessing\n"
              "def ok(): return os.getpid(), os.read(0, 1)\n"
              "def fork(): return os.fork()\n"
              "def spawn(): return os.posix_spawn('/bin/true', [], {})\n"
              "def pool():\n"
              "    from concurrent.futures import ProcessPoolExecutor\n"
              "    return ProcessPoolExecutor\n"
              "def run():\n"
              "    import subprocess as sp\n"
              "    return sp.run(['true'])\n"
              "def bare():\n"
              "    from os import fork\n"
              "    return fork()\n"
              "def futures():\n"
              "    import concurrent.futures\n")
    assert process_starters("m.py", source) == [
        "m", "m.bare", "m.fork", "m.futures", "m.pool", "m.run", "m.spawn"]
