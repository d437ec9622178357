"""What the package and the one-shot CLI commands import, each in a fresh interpreter."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Heavy or unneeded for classify, apply, orbit, partition and enumerate.
NOT_LOADED_BY_ONE_SHOT_COMMANDS = (
    "dataclasses",
    "inspect",
    "json",
    "chordgroups.graph",
    "chordgroups.verify",
)


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter that imports the package from this checkout."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
        check=True,
    )


def test_classify_command_stays_off_the_heavy_imports():
    # runpy.run_module is what ``python -m chordgroups`` runs.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['chordgroups', 'classify', '0,4,7,10']\n"
        "try:\n"
        "    runpy.run_module('chordgroups', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        f"print(sorted(set({NOT_LOADED_BY_ONE_SHOT_COMMANDS!r}) & set(sys.modules)))\n"
    )
    assert run_python("-c", code).stdout == "Mm0\n[]\n"


def test_graph_names_load_on_first_use():
    code = (
        "import sys, chordgroups\n"
        "before = 'chordgroups.graph' in sys.modules\n"
        "chordgroups.build_chord_graph\n"
        "print(before, 'chordgroups.graph' in sys.modules)\n"
    )
    assert run_python("-c", code).stdout.split() == ["False", "True"]


def test_graph_first_keeps_classify_a_function_and_star_binds_all():
    code = (
        "import json, sys\n"
        "import chordgroups.graph\n"
        "import chordgroups\n"
        "namespace = {}\n"
        "exec('from chordgroups import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(json.dumps({\n"
        "    'classify_is_function':\n"
        "        chordgroups.classify is sys.modules['chordgroups.classify'].classify,\n"
        "    'star': sorted(namespace),\n"
        "    'all': chordgroups.__all__,\n"
        "}))\n"
    )
    report = json.loads(run_python("-c", code).stdout)
    assert report["classify_is_function"]
    assert report["star"] == sorted(report["all"])
    assert len(report["all"]) == len(set(report["all"])) == 49


def test_dir_lists_every_public_name():
    import chordgroups

    assert set(chordgroups.__all__) <= set(dir(chordgroups))


def test_unknown_attribute_is_an_attribute_error():
    import chordgroups

    assert not hasattr(chordgroups, "no_such_name")


def test_the_classify_submodule_is_reached_by_from_import_and_sys_modules():
    # ``import chordgroups.classify as m`` reads the package attribute, which
    # is the function; the two forms the package docstring names reach the
    # submodule.
    code = (
        "import sys, types\n"
        "import chordgroups.classify as bound\n"
        "from chordgroups.classify import classify, triad_table\n"
        "module = sys.modules['chordgroups.classify']\n"
        "print(isinstance(bound, types.FunctionType), bound is classify,\n"
        "      isinstance(module, types.ModuleType), module.classify is classify,\n"
        "      module.triad_table is triad_table)\n"
    )
    assert run_python("-c", code).stdout.split() == ["True", "True", "True", "True", "True"]
