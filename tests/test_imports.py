"""A sepkit process imports only the modules its command runs.

One interpreter imports ``sepkit.cli`` and then runs each command as
``python -m sepkit.cli`` does, through runpy, with sepkit's modules dropped
from ``sys.modules`` before each run; it prints the modules each step loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepkit

STATES = Path(__file__).resolve().parent.parent / "cli_examples" / "states"

COMMANDS = {
    "classify": ["--input", str(STATES / "werner3_x030.json")],
    "depolarize": ["--input", str(STATES / "ghz_matrix.json")],
    "distill": ["--input", str(STATES / "class2_rational.json"), "--pair", "A,C", "--oracle"],
    "witness": ["--input", str(STATES / "werner3_x020.json")],
    "threshold": ["--n", "4"],
}

PROBE = """
import sys

import sepkit.cli

loaded = {"import": sorted(sys.modules)}

import contextlib, io, json, runpy

for command, args in json.loads(sys.argv[1]).items():
    for name in [m for m in sys.modules if m.partition(".")[0] == "sepkit"]:
        del sys.modules[name]
    sys.argv, code = ["sepkit", command, *args], None
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("sepkit.cli", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    loaded[command] = sorted(m for m in sys.modules if m.partition(".")[0] == "sepkit")
    loaded[command + " exit"] = code
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded():
    src = str(Path(sepkit.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(COMMANDS)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return json.loads(done.stdout)


def test_cli_import_loads_no_command_module(loaded):
    unloaded = {"sepkit.classify", "sepkit.distill", "sepkit.witness", "sepkit._floatfmt",
                "fractions", "string"}
    assert {"sepkit.cli", "sepkit.stateio"} <= set(loaded["import"])
    assert unloaded.isdisjoint(loaded["import"])


def test_each_command_loads_only_the_modules_it_runs(loaded):
    assert all(loaded[command + " exit"] == 0 for command in COMMANDS)
    commands = {"sepkit.classify", "sepkit.distill", "sepkit.witness"}
    assert commands.isdisjoint(loaded["threshold"])
    assert commands.isdisjoint(loaded["depolarize"])
    assert commands & set(loaded["classify"]) == {"sepkit.classify"}
    assert "sepkit.distill" in loaded["distill"] and "sepkit.witness" not in loaded["distill"]
    assert commands & set(loaded["witness"]) == {"sepkit.classify", "sepkit.witness"}


def test_every_export_is_its_submodule_attribute():
    for name in sepkit.__all__:
        value = getattr(sepkit, name)
        assert value.__module__.startswith("sepkit.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_export():
    namespace = {}
    exec("from sepkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sepkit.__all__)
    assert all(namespace[name] is getattr(sepkit, name) for name in sepkit.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sepkit.no_such_name
    with pytest.raises(ImportError):
        exec("from sepkit import no_such_name", {})
