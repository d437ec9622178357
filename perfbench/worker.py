"""Run one in-process workload in a fresh interpreter and report its samples.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the library's
sources; prints one JSON object on stdout.  Every operation is timed on
its own, its outcome is checked against the oracle after the clock stops,
and a reference loop between rounds of about 0.1 s (around each verdict on
verify-sweep) gives the calibration factor for the operations of that round.

With ``--rss-probe`` it only runs the first operations of the workload, so
that ``run.py`` can read the peak RSS of the library without the harness's
input lists and samples.

With ``--trace 1`` rounds alternate between plain calls and calls wrapped
in spans, so the difference between the two is the tracing overhead, and
the run ends with a fixed layer sweep that calls each public entry point
the per-layer metrics name, whatever the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import re
import time
from array import array
from collections import Counter, defaultdict
from itertools import islice
from types import SimpleNamespace
from typing import Callable, NamedTuple

import oracle
import workloads
from measure import REF_NOMINAL_S, reference_time, summary
from spans import Tracer

# Time between two reference loops.  A verdict takes about 50 ms, so
# verify-sweep puts a reference loop beside every one of them.
ROUND_S = {"chord-stream": 0.1, "graph-session": 0.1, "cli-oneshot": 0.1, "verify-sweep": 0.0}
WARMUP_ITEMS = 1024
CLI_COMMANDS = ("apply", "classify", "enumerate", "graph", "orbit", "partition")

pc = time.perf_counter


# ---- the library as the benchmark calls it -------------------------------


def sanitise(check_name: str) -> str:
    """``relations(k=6)`` -> ``relations_k6``: a name fit for a metric."""
    return re.sub(r"[^A-Za-z0-9]+", "_", check_name.replace("=", "")).strip("_")


def library_api(workload: str, tracer: Tracer | None = None) -> SimpleNamespace:
    """The public entry points the workloads call, each in a span if tracing.

    Span names are ``<module>.<function>``; the counters record work done
    at the boundary: operators applied, orbit members, labels returned.
    Only a traced run, whose layer sweep calls everything, imports the
    modules its workload does not use.
    """
    import chordgroups as cg
    from chordgroups.graph import ChordGraph

    entries = {
        "parse_chord": ("core.parse_chord", cg.parse_chord, None),
        "make_chord": ("core.make_chord", cg.make_chord, None),
        "chord_to_partition": ("core.chord_to_partition", cg.chord_to_partition, None),
        "invert": ("transform.invert", cg.invert, None),
        "dual": ("transform.dual", cg.dual, None),
        "augdim": ("transform.augdim", cg.augdim, None),
        "apply_word": ("transform.apply_word", cg.apply_word, lambda a, r: len(a[0])),
        "orbit": ("transform.orbit", cg.orbit, lambda a, r: len(r)),
        "classify": ("classify.classify", cg.classify, lambda a, r: r is not None),
        "build_chord_graph": ("graph.build", cg.build_chord_graph, None),
        "node": ("graph.node", ChordGraph.node, None),
        "connected_components": ("graph.components", cg.connected_components, None),
        "component_isomorphism": ("graph.isomorphism", cg.component_isomorphism, None),
        "export_dot": ("graph.export_dot", cg.export_dot, None),
        "export_json": ("graph.export_json", cg.export_json, None),
    }
    api = SimpleNamespace(Operator=cg.Operator)
    wrap = tracer.wrap if tracer else (lambda name, fn, count=None: fn)
    for attr, (span, fn, count) in entries.items():
        setattr(api, attr, wrap(span, fn, count))
    if tracer or workload == "verify-sweep":
        from chordgroups import verify

        api.run_checks = verify.run_checks
        api.checks = [(name, wrap(f"verify.{sanitise(name)}", fn)) for name, fn in verify.CHECKS]
    if tracer or workload == "cli-oneshot":
        from chordgroups import cli

        api.build_parser = wrap("cli.build_parser", cli.build_parser)
        api.main = {
            cmd: wrap(f"cli.main.{cmd}", cli.main)
            for cmd in (*CLI_COMMANDS, "invalid")
        }
    return api


# ---- one operation per workload ------------------------------------------


def run_query(api, query):
    _, entry, arg, step, step_arg, final, _ = query
    chord = api.parse_chord(arg) if entry == "parse" else api.make_chord(arg)
    if step == "orbit":
        return api.orbit(chord, step_arg)
    if step == "word":
        chord = api.apply_word(step_arg, chord)
    else:
        chord = getattr(api, step)(chord)
    if final == "classify":
        label = api.classify(chord)
        return None if label is None else str(label)
    return api.chord_to_partition(chord)


def run_session(api, session):
    include_dd, steps, fmt = session
    graph = api.build_chord_graph(include_dd)
    results = []
    for step in steps:
        if step[0] == "node":
            results.append(api.node(graph, step[1]))
        elif step[0] == "components":
            results.append(api.connected_components(graph))
        else:
            results.append(api.component_isomorphism(graph))
    text = api.export_dot(graph) if fmt == "dot" else api.export_json(graph)
    return results, text


def run_verdict(api, _item):
    return api.run_checks()


def run_traced_verdict(api, _item):
    """``run_checks()`` with a span around each check, same results."""
    results = []
    for name, check in api.checks:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results


def run_command(api, command):
    """``cli.main(argv)`` in process with stdout and stderr captured."""
    tag, argv, _, _ = command
    main = api.main["invalid" if tag.startswith("invalid") else argv[0]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---- checking outcomes against the oracle --------------------------------


def _raised(error: BaseException | None, expected_name: str) -> bool:
    return error is not None and any(c.__name__ == expected_name for c in type(error).__mro__)


def check_query(query, result, error) -> bool:
    kind, value = query[-1]
    if kind == workloads.OK:
        return error is None and result == value
    return _raised(error, value)


def check_session(session, result, error) -> bool:
    if error is not None:
        return False
    include_dd, steps, fmt = session
    results, text = result
    for step, got in zip(steps, results):
        if step[0] == "node":
            ok = got.id == step[1] and got.chord == oracle.CHORD_OF_LABEL[step[1]]
        elif step[0] == "components":
            sizes = [len(comp) for comp in got]
            ids = sorted(sorted(node.id for node in comp) for comp in got)
            expected = sorted(map(sorted, oracle.components(include_dd)))
            ok = sizes == sorted(sizes, reverse=True) and ids == expected
        else:
            ok = got == oracle.COMPONENT_MAP
        if not ok:
            return False
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest == oracle.EXPORT_SHA256[(fmt, include_dd)]


def check_verdict(_item, result, error) -> bool:
    return error is None and [tuple(r) for r in result] == oracle.VERIFY_RESULTS


def check_command(command, result, error) -> bool:
    if error is not None:
        return False
    _, _, code, expected = command
    got_code, out, err = result
    if got_code != code or "Traceback" in err:
        return False
    if code != 0:
        return out == "" and err.strip() != ""
    if isinstance(expected, tuple):
        return hashlib.sha256(out.encode("utf-8")).hexdigest() == expected[1]
    return out == expected


# ---- the timed loop ------------------------------------------------------


class Outcomes:
    """Attempted and failed operations, broken down by input tag and input."""

    MAX_INPUTS = 20  # distinct failing inputs listed per tag

    def __init__(self, ops: str) -> None:
        self.ops = ops  # what one operation is, for the report
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.inputs: dict[str, dict[str, list]] = defaultdict(dict)

    def record(self, tag: str, ok: bool, item, result, error) -> None:
        self.attempted[tag] += 1
        if ok:
            return
        self.failed[tag] += 1
        inputs = self.inputs[tag]
        key = input_of(item)
        if key in inputs:
            inputs[key][0] += 1
        elif len(inputs) < self.MAX_INPUTS:
            got = f"{type(error).__name__}: {error}" if error is not None else repr(result)
            inputs[key] = [1, got[:200]]

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "attempted": sum(self.attempted.values()),
            "failed": sum(self.failed.values()),
            "by_input": {
                tag: {
                    "attempted": self.attempted[tag],
                    "failed": self.failed[tag],
                    "inputs": {key: {"failed": n, "got": got}
                               for key, (n, got) in self.inputs[tag].items()},
                }
                for tag in sorted(self.attempted)
            },
        }


def input_of(item) -> str:
    """The input an operation was given, as the caller would write it."""
    if item is None:
        return "run_checks()"
    if isinstance(item, list):  # a CLI argv
        return "chordgroups " + " ".join(map(repr, item))
    if len(item) == 4:  # a CLI command
        return input_of(item[1])
    if len(item) == 3:  # a graph session
        include_dd, steps, fmt = item
        return f"session(include_dd={include_dd}, {len(steps)} steps, export_{fmt})"
    tag, entry, arg, step, step_arg, final, _ = item  # a chord-stream query
    call = f"{'parse_chord' if entry == 'parse' else 'make_chord'}({arg!r})"
    if tag.startswith(("text:", "make:")):  # rejected at entry: the rest is moot
        return call
    word = f"({step_arg!r})" if isinstance(step_arg, str) else ""
    return " | ".join(filter(None, (call, step + word, final)))


class Workload(NamedTuple):
    items: Callable  # seed -> iterable of inputs, generated one at a time
    size: int  # how many of them a timed run cycles through
    run: Callable  # (api, item) -> result
    check: Callable  # (item, result, error) -> bool
    traced_run: Callable  # run, with a span around each library call
    tag: Callable  # item -> input class, for the failure breakdown
    ops: str  # what one operation is, for the report
    root: str  # name of the span around one operation


WORKLOADS = {
    "chord-stream": Workload(
        workloads.chord_stream, workloads.STREAM_SIZE, run_query, check_query, run_query,
        lambda q: q[0], "queries", "query",
    ),
    "graph-session": Workload(
        workloads.graph_sessions, workloads.SESSIONS, run_session, check_session,
        run_session, lambda s: "session", "sessions", "session",
    ),
    "verify-sweep": Workload(
        lambda seed: [None], 1, run_verdict, check_verdict, run_traced_verdict,
        lambda v: "verdict", "verdicts", "verdict",
    ),
    "cli-oneshot": Workload(
        workloads.cli_commands, workloads.COMMANDS, run_command, check_command, run_command,
        lambda c: c[0], "in-process commands", "command",
    ),
}


def prepare(workload: str, item, api):
    """Turn operator letters into the library's Operator values, before timing."""
    if workload != "chord-stream" or item[3] != "orbit":
        return item
    return (*item[:4], tuple(api.Operator(s) for s in item[4].lower()), *item[5:])


def probe_known_defects(api) -> list:
    """Call ``make_chord`` once on each input of ROADMAP item 4's defects.

    Each row gives the input class, the call, what it returned or raised,
    and whether that is a failure (anything but ``InvalidChordError``).
    """
    rows = []
    for tag, inputs in workloads.KNOWN_DEFECT_TONES.items():
        for tones in inputs:
            error = result = None
            try:
                result = api.make_chord(list(tones))
            except Exception as exc:
                error = exc
            got = f"{type(error).__name__}: {error}" if error is not None else repr(result)
            rows.append({"class": tag, "input": f"make_chord({tones!r})", "got": got[:200],
                         "fails": not _raised(error, oracle.INVALID)})
    return rows


def rss_probe(workload: str, seed: int) -> None:
    """Import the library and run the first operations of the seeded stream.

    The inputs are generated one at a time, so the peak RSS of this process,
    which the caller reads with ``os.wait4``, holds the library and the
    interpreter but not the harness's input lists, answers or samples.
    """
    spec = WORKLOADS[workload]
    api = library_api(workload)
    for item in islice(spec.items(seed), WARMUP_ITEMS):
        try:
            spec.run(api, prepare(workload, item, api))
        except Exception:
            pass


def measure(workload: str, seed: int, seconds: float, trace: bool, spans_prefix: str | None):
    spec = WORKLOADS[workload]
    run = spec.run
    api = library_api(workload)
    items = [prepare(workload, item, api) for item in islice(spec.items(seed), spec.size)]
    outcomes = Outcomes(spec.ops)
    # One untimed pass lets lazy set-up finish.
    for item in items[:WARMUP_ITEMS]:
        try:
            run(api, item)
        except Exception:
            pass
    # The harness's own objects (inputs, expected answers) would otherwise
    # make every full collection during a library call slower.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if trace else None
    if tracer:
        traced_api = library_api(workload, tracer)
        traced_run = tracer.wrap(spec.root, spec.traced_run)

    samples = {False: array("d"), True: array("d")}
    rounds = {False: array("l"), True: array("l")}
    refs = [reference_time()]
    index = 0
    deadline = pc() + seconds
    while pc() < deadline:
        traced = bool(tracer) and len(refs) % 2 == 0 and not tracer.full()
        call, target = (traced_run, traced_api) if traced else (run, api)
        times, round_of = samples[traced], rounds[traced]
        round_end = min(pc() + ROUND_S[workload], deadline)
        while True:
            item = items[index % len(items)]
            index += 1
            error = result = None
            start = pc()
            try:
                result = call(target, item)
            except Exception as exc:
                error = exc
            stop = pc()
            times.append(stop - start)
            round_of.append(len(refs) - 1)
            outcomes.record(spec.tag(item), spec.check(item, result, error), item, result, error)
            if stop >= round_end:
                break
        refs.append(reference_time())

    factors = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    report = {"outcomes": outcomes.as_dict(), "ref_s": summary(refs, 50)}
    if workload == "chord-stream":
        report["known_defects"] = probe_known_defects(api)
    for traced, key in ((False, "untraced"), (True, "traced")):
        if samples[traced]:
            raw = samples[traced]
            calibrated = array("d", (t * factors[r] for t, r in zip(raw, rounds[traced])))
            q = workloads.TAIL_Q[workload]
            report[key] = {"raw": summary(raw, q), "calibrated": summary(calibrated, q)}
    if tracer:
        sweep = Tracer()
        report["sweep_factor"] = layer_sweep(library_api(workload, sweep), seed)
        report["layers"] = {"workload": tracer.by_name(), "sweep": sweep.by_name()}
        report["layer_factor"] = sorted(factors)[len(factors) // 2]
        report["spans"] = {"workload": len(tracer.start), "sweep": len(sweep.start)}
        if spans_prefix:
            tracer.write(f"{spans_prefix}-workload.jsonl")
            sweep.write(f"{spans_prefix}-sweep.jsonl")
    return report


# ---- the layer sweep (traced runs only) ----------------------------------


def layer_sweep(api, seed: int) -> float:
    """Call every entry point the per-layer metrics name, on seeded inputs.

    Workloads that do not reach a layer still report it, from these calls;
    the inputs match ROADMAP item 1's baseline table (12-operator words,
    orbits under i, d and a on tetrads).  Returns the calibration factor of
    the sweep, from reference loops run between its sections.
    """
    rng = random.Random(f"layer-sweep:{seed}")
    chords = [workloads.random_chord(rng, rng.choice((3, 4))) for _ in range(64)]
    tetrads = [workloads.random_chord(rng, 4) for _ in range(32)]
    words = ["".join(rng.choice("ida") for _ in range(12)) for _ in tetrads]
    gens = tuple(api.Operator(s) for s in "ida")
    commands = workloads.cli_commands(seed)

    def core_transform_classify():
        for chord in chords:
            api.parse_chord(oracle.text(chord))
            api.make_chord(list(chord))
            api.chord_to_partition(chord)
            api.invert(chord)
            api.dual(chord)
            api.classify(chord)
        for chord, word in zip(tetrads, words):
            api.augdim(chord)
            api.apply_word(word, chord)
            api.orbit(chord, gens)

    def graph():
        for n in range(16):
            built = api.build_chord_graph(n % 2 == 1)
            for node in built.nodes:
                api.node(built, node.id)
            api.connected_components(built)
            api.component_isomorphism(built)
            api.export_dot(built)
            api.export_json(built)

    def verify():
        for _ in range(2):
            run_traced_verdict(api, None)

    def cli():
        for _ in range(16):
            api.build_parser()
        for cmd in CLI_COMMANDS:
            for command in [c for c in commands if c[1][0] == cmd and c[2] == 0][:4]:
                run_command(api, command)

    refs = [reference_time()]
    for section in (core_transform_classify, graph, verify, cli):
        section()
        refs.append(reference_time())
    return REF_NOMINAL_S / sorted(refs)[len(refs) // 2]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="path prefix for the span files of a traced run")
    parser.add_argument("--rss-probe", action="store_true",
                        help="only run the first operations, for a peak RSS reading")
    args = parser.parse_args()
    if args.rss_probe:
        rss_probe(args.workload, args.seed)
        return 0
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
