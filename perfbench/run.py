"""The chordgroups benchmark: one seeded workload, checked and calibrated.

Run from the repository root:

    python3 perfbench/run.py --workload chord-stream --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics (spans, ``-X importtime``, a layer sweep) and the tracing
overhead.  Human-readable lines come first; the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Full results,
with raw wall times beside the calibrated ones, go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import workloads
from measure import (
    BARE_NOMINAL_S,
    IMPORT_NOMINAL_S,
    REF_NOMINAL_S,
    REFERENCE_IMPORT_CODE,
    summary,
)
from worker import Outcomes, check_command, sanitise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 11
IMPORT_REPS = 5
CHILD_TIMEOUT_S = 120

# What a fresh interpreter runs before the workload's first result: the
# imports the workload needs plus its first, cold call.
SETUP_CODE = {
    "chord-stream": ("import chordgroups as cg",
                     "cg.classify(cg.apply_word('id', cg.parse_chord('0,4,7,10')))"),
    "cli-oneshot": ("from chordgroups.cli import main", "main(['classify', '0,4,7,10'])"),
    "verify-sweep": ("from chordgroups.verify import run_checks", "run_checks()"),
    "graph-session": ("import chordgroups as cg", "cg.export_dot(cg.build_chord_graph())"),
}
SETUP_TEMPLATE = """\
import io, sys, time
sys.stdout = io.StringIO()
_t0 = time.perf_counter()
{imports}
_t1 = time.perf_counter()
{first_call}
_t2 = time.perf_counter()
sys.stdout = sys.__stdout__
sys.path.insert(0, {here!r})
from measure import reference_time
print(_t1 - _t0, _t2 - _t1, reference_time(5))
"""

# Modules the `classify` command loads beyond a bare interpreter.
MODULES_CODE = """\
import sys
_before = set(sys.modules)
sys.argv = ['chordgroups', 'classify', '0,4,7,10']
from chordgroups.cli import main
main()
_loaded = sorted(set(sys.modules) - _before)
sys.stderr.write(' '.join(_loaded))
"""

# ROADMAP item 1's baseline table (re-anchor, Python 3.10), for comparison
# with the traced run.  Values in the unit of the measured column.
ROADMAP_BASELINE = [
    ("invert", "transform.invert", "us", "0.8-1.1"),
    ("dual", "transform.dual", "us", "0.8-1.1"),
    ("augdim", "transform.augdim", "us", "0.2"),
    ("classify", "classify.classify", "us", "0.23"),
    ("parse_chord", "core.parse_chord", "us", "3.3"),
    ("apply_word (12 ops, str)", "transform.apply_word", "us", "25"),
    ("orbit(i,d,a) on a tetrad", "transform.orbit", "us", "48"),
    ("build_chord_graph", "graph.build", "us", "540"),
    ("export_json", "graph.export_json", "us", "575"),
    ("ChordGraph.node()", "graph.node", "us", "20"),
    ("verify, in process", "verify.*", "ms", "75"),
    ("relations(k=5)+relations(k=6)", "verify.relations_k5+k6", "ms", "46"),
    ("package import", "import.chordgroups", "ms", "30"),
    ("verify, as a CLI process", "process:verify", "ms", "190"),
    ("classify 0,4,7,10, as a CLI process", "process:classify", "ms", "111"),
    ("bare python -c pass", "process:bare", "ms", "64"),
]


def child_env() -> dict:
    """The library on the path, fixed string hashing, and bytecode caching on
    (as for an installed package) whatever the caller's environment says."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for name in ("PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def spawn(argv: list) -> tuple:
    """Run one child to completion: (wall s, exit code, stdout, stderr, peak RSS MB).

    The child is reaped with ``os.wait4`` so its own peak RSS is known.
    stderr is read after stdout; the children write at most a few lines there.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (elapsed, proc.returncode, out.decode("utf-8", "replace"),
            err.decode("utf-8", "replace"), usage.ru_maxrss / 1024)


def bare_launch() -> float:
    return spawn([sys.executable, "-c", "pass"])[0]


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:  # the ceiling keeps git from reading a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": args.seed,
        "commit": commit,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---- set-up and the import layer -----------------------------------------


def python(code: str, *flags: str) -> tuple:
    """Run ``python -c code`` in a fresh interpreter; fail loudly if it fails."""
    result = spawn([sys.executable, *flags, "-c", code])
    if result[1] != 0:
        raise RuntimeError(f"child exited with {result[1]}: {result[3][-2000:]}")
    return result


def reference_import() -> float:
    return float(python(REFERENCE_IMPORT_CODE)[2])


def measure_setup(workload: str) -> dict:
    """Import plus first call in fresh interpreters, median of several, calibrated.

    In each repetition the import part is calibrated by a reference import
    made right before the child, the first call by the reference loop the
    child runs right after it.
    """
    imports, first_call = SETUP_CODE[workload]
    code = SETUP_TEMPLATE.format(imports=imports, first_call=first_call, here=str(HERE))
    python(code)  # writes the bytecode caches; not timed
    raws, calibrated = [], []
    for _ in range(SETUP_REPS):
        ref_import = reference_import()
        import_s, call_s, ref_loop = map(float, python(code)[2].split())
        raws.append(import_s + call_s)
        calibrated.append(import_s * IMPORT_NOMINAL_S / ref_import
                          + call_s * REF_NOMINAL_S / ref_loop)
    return {"raw_s": statistics.median(raws), "calibrated_s": statistics.median(calibrated),
            "n": SETUP_REPS}


def parse_importtime(stderr: str) -> list:
    """``-X importtime`` lines as (module, self us, cumulative us, depth)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((name.strip(), int(self_us), int(cumulative_us), depth))
    return rows


def measure_imports() -> dict:
    """Import cost of the package and of the CLI, and what `classify` loads."""
    results: dict = {}
    for key, statement, modules in (
        ("chordgroups", "import chordgroups", ("chordgroups",)),
        ("cli", "import chordgroups.cli", ("chordgroups", "chordgroups.cli")),
    ):
        raws, calibrated, tree = [], [], []
        for _ in range(IMPORT_REPS):
            ref_import = reference_import()
            tree = parse_importtime(python(statement, "-X", "importtime")[3])
            total_us = sum(cum for name, _, cum, depth in tree if depth == 0 and name in modules)
            raws.append(total_us / 1e3)
            calibrated.append(total_us / 1e3 * IMPORT_NOMINAL_S / ref_import)
        results[key] = {"raw_ms": statistics.median(raws),
                        "calibrated_ms": statistics.median(calibrated), "tree": tree}
    results["classify_loads"] = python(MODULES_CODE)[3].split()
    return results


# ---- the CLI process loop -----------------------------------------------


def _strip_importtime(stderr: str) -> str:
    return "".join(
        line for line in stderr.splitlines(keepends=True) if not line.startswith("import time:")
    )


def cli_loop(seed: int, seconds: float, with_importtime: bool = False) -> dict:
    """One ``python -m chordgroups`` process at a time, each after a bare launch.

    With ``with_importtime`` each command runs a second time under
    ``-X importtime`` (the traced variant), so the two can be compared.
    """
    commands = workloads.cli_commands(seed)
    outcomes = Outcomes("command processes")
    samples: dict = {False: ([], []), True: ([], [])}
    peak_rss = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        command = commands[index % len(commands)]
        index += 1
        for traced in (False, True) if with_importtime else (False,):
            bare = bare_launch()
            flags = ["-X", "importtime"] if traced else []
            elapsed, code, out, err, rss = spawn(
                [sys.executable, *flags, "-m", "chordgroups", *command[1]]
            )
            raws, calibrated = samples[traced]
            raws.append(elapsed)
            calibrated.append(elapsed * BARE_NOMINAL_S / bare)
            if not traced:
                peak_rss = max(peak_rss, rss)
            result = (code, out, _strip_importtime(err))
            outcomes.record(command[0], check_command(command, result, None), command[1],
                            result, None)
    report = {"outcomes": outcomes.as_dict(), "peak_rss_mb": peak_rss}
    for traced, key in ((False, "untraced"), (True, "traced")):
        raws, calibrated = samples[traced]
        if raws:
            q = workloads.TAIL_Q["cli-oneshot"]
            report[key] = {"raw": summary(raws, q), "calibrated": summary(calibrated, q)}
    return report


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}")]
    _, code, out, err, _ = spawn(argv)
    if code != 0:
        raise RuntimeError(f"worker failed with exit code {code}: {err[-4000:]}")
    return json.loads(out.splitlines()[-1])


def probe_rss(workload: str, seed: int) -> float:
    """Peak RSS, in MB, of a child that imports the library and runs the
    workload's first operations, without the harness's data (worker.rss_probe)."""
    _, code, _, err, rss = spawn([sys.executable, str(HERE / "worker.py"), "--workload",
                                  workload, "--seed", str(seed), "--seconds", "0",
                                  "--rss-probe"])
    if code != 0:
        raise RuntimeError(f"RSS probe failed with exit code {code}: {err[-4000:]}")
    return rss


# ---- metrics ---------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "peak_rss_mb": "MB"}

# The end-to-end metrics under the names the workloads give them.
E2E_ALIASES = {
    "chord-stream": [("queries_per_s", "throughput_per_s", 1, "1/s"),
                     ("query_p50_us", "latency_p50_ms", 1e3, "us"),
                     ("query_p99_us", "latency_tail_ms", 1e3, "us")],
    "cli-oneshot": [("cmd_p50_ms", "latency_p50_ms", 1, "ms"),
                    ("cmd_p90_ms", "latency_tail_ms", 1, "ms"),
                    ("peak_rss_mb", "peak_rss_mb", 1, "MB")],
    "verify-sweep": [("verdict_ms", "latency_p50_ms", 1, "ms"),
                     ("verdict_p75_ms", "latency_tail_ms", 1, "ms")],
    "graph-session": [("sessions_per_s", "throughput_per_s", 1, "1/s"),
                      ("session_p90_ms", "latency_tail_ms", 1, "ms")],
}


def e2e_metrics(timings: dict) -> dict:
    """Calibrated and raw end-to-end values from one summary of op times."""
    out = {}
    for kind in ("calibrated", "raw"):
        s = timings[kind]
        out[kind] = {
            "throughput_per_s": 1 / s["mean"],
            "latency_p50_ms": s["p50"] * 1e3,
            "latency_tail_ms": s["tail"] * 1e3,
            "n": s["n"],
        }
    return out


def layer_metrics(worker_report: dict, imports: dict) -> tuple[dict, dict]:
    """Per-layer metrics: from the workload's spans where it calls the
    function, otherwise from the layer sweep.  Returns (metrics, sources)."""
    workload_layers = worker_report["layers"]["workload"]
    sweep_layers = worker_report["layers"]["sweep"]

    def layer(span: str) -> tuple[dict, str]:
        """The span's statistics, with its median scaled by its calibration."""
        if workload_layers.get(span, {}).get("calls"):
            stats, source, factor = workload_layers[span], "workload", "layer_factor"
        else:
            stats, source, factor = sweep_layers[span], "sweep", "sweep_factor"
        return {**stats, "median_us": stats["median_us"] * worker_report[factor]}, source

    metrics, sources = {}, {}

    def put(name, value, unit, source):
        metrics[name] = {"value": value, "unit": unit}
        sources[name] = source

    put("import.chordgroups_ms", imports["chordgroups"]["calibrated_ms"], "ms", "importtime")
    put("import.cli_ms", imports["cli"]["calibrated_ms"], "ms", "importtime")
    put("import.modules_loaded", len(imports["classify_loads"]), "count", "sys.modules")
    stats, source = layer("cli.build_parser")
    put("cli.build_parser_us", stats["median_us"], "us", source)
    for cmd in ("apply", "classify", "enumerate", "graph", "orbit", "partition"):
        stats, source = layer(f"cli.main.{cmd}")
        put(f"cli.main_us.{cmd}", stats["median_us"], "us", source)
    for span in ("core.parse_chord", "core.make_chord", "core.chord_to_partition",
                 "transform.invert", "transform.dual", "transform.augdim",
                 "transform.apply_word", "transform.orbit", "classify.classify",
                 "graph.build", "graph.node", "graph.components", "graph.isomorphism",
                 "graph.export_dot", "graph.export_json"):
        stats, source = layer(span)
        put(f"{span}.us", stats["median_us"], "us", source)
    for name, _, _ in oracle.VERIFY_RESULTS:
        stats, source = layer(f"verify.{sanitise(name)}")
        put(f"verify.{sanitise(name)}.ms", stats["median_us"] / 1e3, "ms", source)
    return metrics, sources


def shape_counters(worker_report: dict) -> dict:
    """Counts per call at the layer boundaries, from the workload's own spans.

    The seeded inputs fix them (a correct library returns the same orbit
    sizes and labels however fast it is), so they describe the workload's
    shape, not its performance, and are not metrics of ``BENCHMARK.json``.
    """
    spans = worker_report["layers"]["workload"]
    core = [spans[s] for s in ("core.parse_chord", "core.make_chord",
                               "core.chord_to_partition") if s in spans]
    core_calls = sum(stats["calls"] for stats in core)
    shape = {"core.errors": sum(stats["raised"] for stats in core) / core_calls
             if core_calls else None}
    for name, span in (("transform.apply_word.ops", "transform.apply_word"),
                       ("transform.orbit.size", "transform.orbit"),
                       ("classify.hit_ratio", "classify.classify")):
        shape[name] = spans[span]["count"] / spans[span]["calls"] if span in spans else None
    return shape


def roadmap_table(worker_report: dict, imports: dict, processes: dict) -> list:
    """ROADMAP item 1's baseline beside this run's raw and calibrated values."""
    sweep = worker_report["layers"]["sweep"]
    factor = worker_report["sweep_factor"]
    checks = {k[len("verify."):]: v["median_us"] / 1e3 for k, v in sweep.items()
              if k.startswith("verify.")}
    rows = []
    for label, key, unit, baseline in ROADMAP_BASELINE:
        if key == "verify.*":
            raw, cal = sum(checks.values()), sum(checks.values()) * factor
        elif key == "verify.relations_k5+k6":
            raw = checks["relations_k5"] + checks["relations_k6"]
            cal = raw * factor
        elif key == "import.chordgroups":
            raw, cal = imports["chordgroups"]["raw_ms"], imports["chordgroups"]["calibrated_ms"]
        elif key.startswith("process:"):
            raw, cal = processes[key[len("process:"):]]
        else:
            raw = sweep[key]["median_us"]
            cal = raw * factor
        rows.append({"layer": label, "unit": unit, "roadmap": baseline,
                     "raw": raw, "calibrated": cal})
    return rows


def process_rows() -> dict:
    """Median raw and calibrated wall time of the CLI processes in the table."""
    samples: dict = {"bare": [], "classify": [], "verify": []}
    for _ in range(3):
        for key, args in (("classify", ["classify", "0,4,7,10"]), ("verify", ["verify"])):
            bare = bare_launch()
            elapsed = spawn([sys.executable, "-m", "chordgroups", *args])[0]
            samples["bare"].append((bare, BARE_NOMINAL_S))
            samples[key].append((elapsed, elapsed * BARE_NOMINAL_S / bare))
    return {
        key: (statistics.median(r for r, _ in rows) * 1e3,
              statistics.median(c for _, c in rows) * 1e3)
        for key, rows in samples.items()
    }


# ---- output ----------------------------------------------------------------


def print_outcomes(outcomes: dict) -> None:
    ratio = outcomes["failed"] / outcomes["attempted"]
    print(f"failed_ratio        {ratio:<12.6g} ({outcomes['failed']} of "
          f"{outcomes['attempted']} {outcomes['ops']})")
    for tag, row in outcomes["by_input"].items():
        if row["failed"]:
            print(f"  {tag}: failed {row['failed']} of {row['attempted']}")
            for key, failure in row["inputs"].items():
                print(f"    {failure['failed']:>7}  {key} -> {failure['got']}")


def print_known_defects(rows: list) -> None:
    """ROADMAP item 4's inputs, probed once outside the timed stream."""
    failing = sum(row["fails"] for row in rows)
    print(f"# known defects (ROADMAP item 4, probed once, not in attempted/failed): "
          f"{failing} of {len(rows)} inputs still fail")
    for row in rows:
        print(f"#   {'FAILS' if row['fails'] else 'ok   '}  {row['class']:<10} "
              f"{row['input']} -> {row['got']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chordgroups benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chordgroups" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'chordgroups'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print(f"# chordgroups benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python {env['python']}, {env['cpu']}, nproc {env['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}, commit {env['commit']}")
    result = {"environment": env}
    if args.trace:
        metrics, outcomes = trace_run(args, result)
    else:
        metrics, outcomes = untraced_run(args, result)
    for part in outcomes:
        print_outcomes(part)
    if "known_defects" in result["report"]:
        print_known_defects(result["report"]["known_defects"])
    result["outcomes"] = outcomes
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"# full result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(part["failed"] == 0 for part in outcomes),
        "attempted": sum(part["attempted"] for part in outcomes),
        "failed": sum(part["failed"] for part in outcomes),
        "metrics": metrics,
    }))
    return 0


def untraced_run(args, result: dict) -> tuple[dict, list]:
    setup = measure_setup(args.workload)
    if args.workload == "cli-oneshot":
        report = cli_loop(args.seed, args.seconds)
    else:
        report = run_worker(args.workload, args.seed, args.seconds, trace=False)
        report["peak_rss_mb"] = probe_rss(args.workload, args.seed)
    e2e = e2e_metrics(report["untraced"])
    values = {**e2e["calibrated"], "setup_s": setup["calibrated_s"],
              "peak_rss_mb": report["peak_rss_mb"]}
    raw = {**e2e["raw"], "setup_s": setup["raw_s"], "peak_rss_mb": report["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    n = e2e["calibrated"]["n"]
    counts = {"setup_s": setup["n"], "peak_rss_mb": n if args.workload == "cli-oneshot" else 1}
    for name, unit in E2E_UNITS.items():
        count = counts.get(name, n)
        print(f"{name:<19} {values[name]:<12.6g} {unit:<4} (raw {raw[name]:.6g}, n={count})")
    for alias, name, scale, unit in E2E_ALIASES[args.workload]:
        print(f"  {args.workload} {alias} = {values[name] * scale:.6g} {unit}")
    result.update(setup=setup, report=report, metrics=metrics, raw=raw)
    return metrics, [report["outcomes"]]


def trace_run(args, result: dict) -> tuple[dict, list]:
    imports = measure_imports()
    if args.workload == "cli-oneshot":
        plain_vs_traced = cli_loop(args.seed, args.seconds / 2, with_importtime=True)
        report = run_worker(args.workload, args.seed, args.seconds / 2, trace=True)
    else:
        report = run_worker(args.workload, args.seed, args.seconds, trace=True)
        plain_vs_traced = report
    metrics, sources = layer_metrics(report, imports)
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:<12.6g} {metric['unit']:<5} ({sources[name]})")
    shape = shape_counters(report)
    print("# workload shape, per call (set by the inputs, not performance): " + ", ".join(
        f"{name} {'-' if value is None else f'{value:.4g}'}" for name, value in shape.items()))

    untraced = e2e_metrics(plain_vs_traced["untraced"])["calibrated"]
    traced = e2e_metrics(plain_vs_traced["traced"])["calibrated"]
    overhead = {name: traced[name] - untraced[name] for name in untraced if name != "n"}
    print("# tracing overhead (traced - untraced, calibrated): " + ", ".join(
        f"{name} {diff:+.6g} ({diff / untraced[name]:+.1%})" for name, diff in overhead.items()))
    print(f"# classify loads {len(imports['classify_loads'])} modules beyond a bare "
          f"interpreter: {' '.join(imports['classify_loads'])}")

    table = roadmap_table(report, imports, process_rows())
    print("# ROADMAP item 1 baseline vs this run (raw / calibrated):")
    for row in table:
        print(f"#   {row['layer']:<38} roadmap {row['roadmap']:>8} {row['unit']:<2}  "
              f"now {row['raw']:9.4g} / {row['calibrated']:9.4g} {row['unit']}")

    for layer in ("workload", "sweep"):
        print(f"# self time by span ({layer}): " + ", ".join(
            f"{name} {stats['self_share']:.1%}"
            for name, stats in sorted(report["layers"][layer].items(),
                                      key=lambda kv: -kv[1]["self_share"])[:8]))
    result.update(imports=imports, report=report, metrics=metrics, sources=sources, shape=shape,
                  untraced=untraced, traced=traced, overhead=overhead, roadmap=table)
    outcomes = [report["outcomes"]]
    if plain_vs_traced is not report:
        outcomes.append(plain_vs_traced["outcomes"])
    return metrics, outcomes


if __name__ == "__main__":
    raise SystemExit(main())
