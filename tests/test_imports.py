"""What the package and the CLI commands import, each in a fresh interpreter."""

from __future__ import annotations

import json

import pytest

from conftest import PERFBENCH, run_python

# Heavy or unneeded for classify, apply, orbit, partition and enumerate.
NOT_LOADED_BY_ONE_SHOT_COMMANDS = (
    "dataclasses",
    "inspect",
    "json",
    "chordgroups.graph",
    "chordgroups.verify",
)


# Only export_json imports json, on its first call: graph --format json loads
# these, and no other command does.
JSON_MODULES = ("json", "json.decoder", "json.encoder", "json.scanner")

# argparse and what it loads for its texts; the CLI reads plain command lines itself.
ARGPARSE_MODULES = ("argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv, first_line, watched, loaded",
    [
        ("classify 0,4,7,10", "Mm0", NOT_LOADED_BY_ONE_SHOT_COMMANDS, ()),
        ("graph --format dot", "digraph chord_graph {", JSON_MODULES, ()),
        ("verify", "core-roundtrip: PASS", JSON_MODULES, ()),
        ("graph --format json", "{", JSON_MODULES, JSON_MODULES),
    ],
    ids=["classify", "graph-dot", "verify", "graph-json"],
)
def test_commands_load_only_what_they_use(argv, first_line, watched, loaded):
    # The child runs without site (-S), whose start-up can import typing
    # itself, so that what is loaded is what the command loaded, and in
    # development mode with warnings as errors (-X dev -W error); no command
    # loads typing or __future__ (no module defers its annotations), a plain
    # command line loads no argparse, and only the JSON export loads json.
    watched = (*watched, "typing", "__future__", *ARGPARSE_MODULES)
    # runpy.run_module is what ``python -m chordgroups`` runs.
    code = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['chordgroups', *{argv.split()!r}]\n"
        "out = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runpy.run_module('chordgroups', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(out.getvalue().splitlines()[0])\n"
        f"print(sorted(set({watched!r}) & set(sys.modules)))\n"
    )
    child = run_python("-S", "-X", "dev", "-W", "error", "-c", code)
    assert child.stdout == f"{first_line}\n{sorted(loaded)}\n"


def test_the_oracle_shares_no_code_with_the_library():
    # tier-1 checks the library against perfbench/oracle.py, so the oracle
    # may import no chordgroups module, though the package is on the path
    code = f"import sys; sys.path.append({PERFBENCH!r}); import oracle; print(*sys.modules)"
    modules = run_python("-S", "-X", "dev", "-W", "error", "-c", code).stdout.split()
    assert "oracle" in modules and not [m for m in modules if m.split(".")[0] == "chordgroups"]


def test_graph_names_load_on_first_use_without_json():
    code = (
        "import sys, chordgroups\n"
        "before = 'chordgroups.graph' in sys.modules\n"
        "chordgroups.build_chord_graph\n"
        "print(before, 'chordgroups.graph' in sys.modules)\n"
        f"print(sorted(set({JSON_MODULES!r}) & set(sys.modules)))\n"
    )
    assert run_python("-c", code).stdout == "False True\n[]\n"


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
    assert len(report["all"]) == len(set(report["all"])) == 47


def test_each_eager_export_is_its_submodules_own_object():
    import sys

    import chordgroups

    eager = {name: module for name, module in chordgroups._EXPORTS.items() if module != "graph"}
    assert len(eager) == 38
    for name, module in eager.items():
        # read from the package's namespace, not through its __getattr__
        assert vars(chordgroups)[name] is getattr(sys.modules[f"chordgroups.{module}"], name), name
    assert chordgroups.classify is sys.modules["chordgroups.classify"].classify


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
