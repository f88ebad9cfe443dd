"""The sepkit names the benchmark depends on must exist.

``benchmarks/workloads.py`` calls sepkit through module attributes, and
``benchmarks/tracing.py`` wraps module attributes by name, skipping any it
cannot find. A rename or deletion in ``src/`` would otherwise break a
workload, or silently drop a per-layer span, only when the benchmark runs.
This module reads ``benchmarks/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# Read only on the refusal path for an error that no longer exists.
KNOWN_MISSING = {("sepkit.distill", "MINIMAL_M_CAP")}


def _sepkit_module_names(tree):
    """Local name -> module name, for every sepkit module the source imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, a.name) for a in node.names if a.name == "sepkit")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sepkit":
            for alias in node.names:
                module = f"{node.module}.{alias.name}"
                try:  # as the import statement does: a submodule, or else a plain name
                    importlib.import_module(module)
                except ModuleNotFoundError:
                    continue
                names[alias.asname or alias.name] = module
    return names


def test_workload_attribute_reads_exist():
    tree = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    modules = _sepkit_module_names(tree)
    reads = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    # the scan itself works: it sees reads the workloads are known to make
    assert {("sepkit.classify", "classify_family"), ("sepkit.cli", "main")} <= reads
    missing = {
        (module, name)
        for module, name in reads
        if not hasattr(importlib.import_module(module), name)
    }
    assert missing <= KNOWN_MISSING


def test_every_traced_layer_has_a_target():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    dead = [
        name
        for name, targets, _, _ in tracing.LAYERS
        if not any(tracing._resolve(module, path) for module, path in targets)
    ]
    assert dead == []
