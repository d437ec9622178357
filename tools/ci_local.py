"""Run the CI workflow's steps locally, on every matrix interpreter pyenv has.

    python3 tools/ci_local.py

Reads ``.github/workflows/tests.yml`` (PyYAML must be importable by the
interpreter that runs this script) and runs each ``run:`` step of its
``tests`` job from the repository root under ``bash -eo pipefail``, once
per matrix Python version.  Each run puts that version's newest pyenv
install (under ``$PYENV_ROOT/versions``, ``~/.pyenv`` by default) first
on ``PATH``, and each step gets a fresh ``RUNNER_TEMP``.  The step that
installs the test dependencies is skipped, since it needs the network.

An interpreter without pytest runs from a throwaway venv whose
site-packages is a link to the site-packages of the interpreter running
this script, so the borrowed packages sit under ``sys.prefix`` as after a
``pip install``.  A ``PYTHONPATH`` entry would not do: several steps set
``PYTHONPATH=src`` themselves, and the trace step counts lines of every
module outside ``sys.prefix``.  If the test dependencies still do not
import, every step that runs pytest is reported as "cannot run".

Prints one Markdown table row per step and interpreter: pass, fail, cannot
run or skipped, with the wall time and the first error line.  Exits 1 if
any step failed.
"""

import os
import re
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
TEST_DEPENDENCIES = "import pytest, hypothesis, networkx"
STEP_TIMEOUT_S = 900
# a failed step's error line: the first exception line, else the first line
# that reads like a failure, else the last line
EXCEPTION_LINE = re.compile(r"[\w.]+(Error|Exception|Exit): ")
ERROR_LINE = re.compile(r"Error|FAILED|failed|error:|exited|never ran|no line counts|below")


def newest_install(version: str) -> Path | None:
    """The bin directory of the newest pyenv install of a version like "3.10"."""
    pattern = re.compile(rf"{re.escape(version)}\.(\d+)")
    installs = [
        (int(match[1]), path / "bin")
        for path in VERSIONS.glob(f"{version}.*")
        if (match := pattern.fullmatch(path.name)) and (path / "bin" / "python").exists()
    ]
    return max(installs)[1] if installs else None


def python_output(env: dict, code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["python", "-c", code], env=env, capture_output=True, text=True, check=False
    )


def with_bin_dir(bin_dir: Path) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    return env


def interpreter_env(bin_dir: Path, scratch: Path) -> tuple[dict, str | None]:
    """The environment the steps run in, and why pytest cannot run in it, if it cannot."""
    env = with_bin_dir(bin_dir)
    if python_output(env, "import pytest").returncode != 0:
        venv = scratch / "venv"
        subprocess.run([bin_dir / "python", "-m", "venv", "--without-pip", venv], check=True)
        env = with_bin_dir(venv / "bin")
        answer = python_output(env, "import site; print(site.getsitepackages()[0])")
        site_dir = Path(answer.stdout.strip())
        site_dir.rmdir()
        site_dir.symlink_to(sysconfig.get_path("purelib"))
    probe = python_output(env, TEST_DEPENDENCIES)
    if probe.returncode != 0:
        return env, probe.stderr.strip().splitlines()[-1]
    return env, None


def first_error_line(output: str) -> str:
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    exceptions = [line for line in lines if EXCEPTION_LINE.match(line)]
    failures = [line for line in lines if ERROR_LINE.search(line)]
    return (exceptions or failures or lines[-1:] or [""])[0]


def run_step(script: str, env: dict) -> tuple[str, float, str]:
    with tempfile.TemporaryDirectory(prefix="runner-temp-") as runner_temp:
        started = time.monotonic()
        try:
            done = subprocess.run(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", script],
                cwd=ROOT,
                env={**env, "RUNNER_TEMP": runner_temp},
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                timeout=STEP_TIMEOUT_S,
                check=False,
            )
        except subprocess.TimeoutExpired:
            return "fail", time.monotonic() - started, f"timed out after {STEP_TIMEOUT_S} s"
        wall = time.monotonic() - started
    if done.returncode == 0:
        return "pass", wall, ""
    return "fail", wall, f"exit {done.returncode}: {first_error_line(done.stdout)}"


def row(step: str, version: str, result: str, wall: float | None, note: str) -> None:
    shown = "" if wall is None else f"{wall:.1f} s"
    note = note.replace("|", "\\|")
    print(f"| {step} | {version} | {result} | {shown} | {note} |", flush=True)


def main() -> int:
    job = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tests"]
    steps = [step for step in job["steps"] if "run" in step]
    print("| step | python | result | wall | first error line |")
    print("|---|---|---|---|---|")
    failed = False
    for version in job["strategy"]["matrix"]["python-version"]:
        bin_dir = newest_install(version)
        if bin_dir is None:
            row("(every step)", version, "cannot run", None, f"no install under {VERSIONS}")
            continue
        label = bin_dir.parent.name
        with tempfile.TemporaryDirectory(prefix="ci-local-") as scratch:
            env, no_pytest = interpreter_env(bin_dir, Path(scratch))
            for step in steps:
                name, script = step.get("name", step["run"].splitlines()[0]), step["run"]
                if "pip install" in script:
                    row(name, label, "skipped", None, "installs packages from the network")
                elif no_pytest and "pytest" in script:
                    row(name, label, "cannot run", None, no_pytest)
                else:
                    result, wall, note = run_step(script, env)
                    failed |= result == "fail"
                    row(name, label, result, wall, note)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
