"""maxram benchmark: one workload's command list, timed end to end or traced.

    python3 perfbench/run.py --workload chi-search --seed 1 --seconds 30 --trace 0

Run from the repository root. With --trace 0 a single closed-loop client
runs the workload's commands one at a time as `python -m maxram.cli`
subprocesses (PYTHONPATH=src), repeating the whole list while another
pass fits in --seconds, and reports the end-to-end metrics. Each
command's time is rescaled by a reference command run next to it. With
--trace 1 it runs the same list twice in process through
maxram.cli.main, once plain and once with spans around maxram's public
functions, and reports per-layer self times and counters. Every output
is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from gate import Gate, HashRecord, code_digest
from spans import LAYERS, Tracer, layer_metrics, self_times, unbalanced_commands
from workloads import WORKLOADS, Instance, instances, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
STARTUP_REPEATS = 3
# The reference command: a fixed Python program that imports nothing from
# maxram. Like a maxram command, it starts an interpreter, backtracks
# through a search (the 92 solutions of eight queens) and computes with
# Fractions.
REFERENCE = """
import fractions

def place(row, cols, up, down, n):
    if row == n:
        return 1
    count = 0
    for c in range(n):
        if c not in cols and row + c not in up and row - c not in down:
            cols.add(c); up.add(row + c); down.add(row - c)
            count += place(row + 1, cols, up, down, n)
            cols.discard(c); up.discard(row + c); down.discard(row - c)
    return count

assert place(0, set(), set(), set(), 8) == 92
table = {}
for i in range(20000):
    table[i * i % 11] = table.get(i * i % 11, 0) + fractions.Fraction(i, 7)
"""
# Rescaled times are seconds on a host where the reference command takes
# this long: about its time on the quiet host named in README.md.
REFERENCE_NOMINAL_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "certified_s": "s",
    "peak_rss_mb": "MB",
    "artifact_bytes": "bytes",
    "answer_size": "count",
}
PER_LAYER = {
    "metric.find_copies_s": "s",
    "metric.copies": "count",
    "chromatic.copy_hypergraph_s": "s",
    "chromatic.edges": "count",
    "chromatic.exact_chromatic_s": "s",
    "chromatic.proved_frac": "fraction",
    "cover.exact_cover_s": "s",
    "cover.greedy_cover_s": "s",
    "cover.is_cover_s": "s",
    "cover.proved_frac": "fraction",
    "cover.random_cover_s": "s",
    "colorings.avoidance_coloring_s": "s",
    "colorings.boxes": "count",
    "colorings.classes": "count",
    "anchors.build_s": "s",
    "anchors.verify_s": "s",
    "extraction.extract_s": "s",
    "io.certificate_s": "s",
    "io.write_s": "s",
    "io.read_s": "s",
    "io.bytes": "bytes",
    "validate.chromatic_s": "s",
    "validate.torus_cover_s": "s",
    "validate.periodic_coloring_s": "s",
    "validate.anchor_sequence_s": "s",
    "validate.copy_embedding_s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class Terminated(BaseException):
    """Raised by SIGTERM, so that run_python kills and reaps its child."""


def _terminate(signum, frame):
    raise Terminated


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MAXRAM_BUDGET", None)
    return env


def run_python(args: list[str], log: Path) -> tuple[int, float, str, int]:
    """Run `python args`; (exit code, seconds, stdout, max RSS KiB)."""
    with open(f"{log}.out", "w+") as out, open(f"{log}.err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, elapsed, out.read(), usage.ru_maxrss


def run_child(argv: list[str], log: Path) -> tuple[int, float, str, int]:
    """Run `python -m maxram.cli argv`, as run_python."""
    return run_python(["-m", "maxram.cli", *argv], log)


def reference_s(log: Path) -> float:
    """Seconds the reference command takes now."""
    code, seconds, _, _ = run_python(["-c", REFERENCE], log)
    if code != 0:
        raise RuntimeError(f"reference command exited {code}")
    return seconds


class HostClock:
    """Rescales each command's wall time by the reference command run
    right before and right after it.

    A shared host can run every process half again as slow for a minute
    or more. The reference command slows with it, so a command's time
    over the mean of its two neighbouring reference times is steady; it
    is reported in seconds at REFERENCE_NOMINAL_S per reference run.
    """

    def __init__(self, log: Path):
        self.log = log
        self.before = reference_s(log)
        self.references = [self.before]

    def scale(self, seconds: float) -> float:
        after = reference_s(self.log)
        self.references.append(after)
        scaled = seconds * REFERENCE_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return scaled


def produce_argv(inst: Instance, inputs: dict[str, str], artifact: Path) -> list[str]:
    return [a.format(**inputs) for a in inst.argv] + ["-o", str(artifact)]


def setup(workload: str, seed: int, directory: Path) -> tuple[float, dict[str, str]]:
    """Generate the input files and start the CLI once, cold."""
    start = time.perf_counter()
    inputs = write_inputs(workload, seed, directory)
    code, _, _, _ = run_child(["--help"], directory / "startup")
    if code != 0:
        raise RuntimeError(f"maxram.cli --help exited {code}")
    return time.perf_counter() - start, inputs


def answers(certs: list[dict], insts: list[Instance]) -> tuple[int, int]:
    """(answer_size, bound_gap): summed answer sizes, and summed size minus
    certified lower bound over chromatic and cover answers."""
    size = gap = 0
    for cert, inst in zip(certs, insts):
        if cert is None or inst.size_key is None:
            continue
        size += cert[inst.size_key]
        if "lower_bound" in cert:
            gap += cert[inst.size_key] - cert["lower_bound"]
    return size, gap


def untraced(args, insts: list[Instance], work: Path, gate: Gate) -> tuple[dict, dict]:
    # Rescaled seconds of every set-up, producing and validating command,
    # one entry per pass. Each pass sets up afresh, so the set-ups spread
    # over the run.
    clock = HostClock(work / "reference")
    setups = []
    produce_s = {inst.name: [] for inst in insts}
    validate_s = {inst.name: [] for inst in insts}
    passes = []
    begin = time.perf_counter()
    while True:
        seconds, inputs = setup(args.workload, args.seed, work / f"inputs{len(passes)}")
        setups.append(clock.scale(seconds))
        out = work / f"pass{len(passes)}"
        out.mkdir()
        rss, commands = 0, []
        for inst in insts:
            artifact = out / f"{inst.name}.json"
            code, seconds, _, kib = run_child(produce_argv(inst, inputs, artifact), out / inst.name)
            produce_s[inst.name].append(clock.scale(seconds))
            vcode, vseconds, verdict, vkib = run_child(
                ["validate", str(artifact)], out / f"{inst.name}.validate"
            )
            validate_s[inst.name].append(clock.scale(vseconds))
            commands.append((inst, code, artifact, vcode, verdict))
            rss = max(rss, kib, vkib)
        certs = [gate.instance(*c) for c in commands]
        size, gap = answers(certs, insts)
        passes.append({
            "peak_rss_mb": rss / 1024,
            "artifact_bytes": sum(c[2].stat().st_size for c in commands if c[2].exists()),
            "answer_size": size,
            "bound_gap": gap,
        })
        elapsed = time.perf_counter() - begin
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    solve = sum(statistics.median(times) for times in produce_s.values())
    validation = sum(statistics.median(times) for times in validate_s.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": solve,
        "certified_s": solve + validation,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        # Identical in every pass: the gate holds artifact hashes fixed.
        "artifact_bytes": passes[0]["artifact_bytes"],
        "answer_size": passes[0]["answer_size"],
    }
    info = {
        "bound_gap": passes[-1]["bound_gap"],
        "passes": len(passes),
        "setup_s": setups,
        "produce_s": produce_s,
        "validate_s": validate_s,
        "reference_s": clock.references,
    }
    return metrics, info


def call_main(cli, argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is not None:
            tracer.command += 1
            root = tracer.open("cli.main")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            # A crash fails this command, as a traceback does in a subprocess.
            print(traceback.format_exc(), file=sys.__stderr__)
            code = 1
        finally:
            if tracer is not None:
                tracer.close(root)
    return code, out.getvalue()


def in_process_pass(cli, insts, inputs, out: Path, gate: Gate, tracer=None) -> float:
    out.mkdir()
    commands = []
    start = time.perf_counter()
    for inst in insts:
        artifact = out / f"{inst.name}.json"
        code, _ = call_main(cli, produce_argv(inst, inputs, artifact), tracer)
        vcode, verdict = call_main(cli, ["validate", str(artifact)], tracer)
        commands.append((inst, code, artifact, vcode, verdict))
    elapsed = time.perf_counter() - start
    for c in commands:
        gate.instance(*c)
    return elapsed


def traced(args, insts: list[Instance], work: Path, gate: Gate) -> tuple[dict, dict]:
    _, inputs = setup(args.workload, args.seed, work / "inputs")
    startup = statistics.median(
        run_child(["--help"], work / f"startup{i}")[1] for i in range(STARTUP_REPEATS)
    )
    sys.path.insert(0, str(SRC))
    import maxram.cli as cli

    plain_s = in_process_pass(cli, insts, inputs, work / "plain", gate)
    tracer = Tracer()
    tracer.install(LAYERS)
    try:
        traced_s = in_process_pass(cli, insts, inputs, work / "traced", gate, tracer)
    finally:
        tracer.uninstall()
    (work / "spans.json").write_text(json.dumps(tracer.dump()))
    for command in unbalanced_commands(tracer.spans, self_times(tracer.spans)):
        gate.failures.append(f"command {command}: self times do not sum to its root span")
        gate.failed += 1
    metrics = layer_metrics(tracer)
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    return metrics, {"plain_s": plain_s, "traced_s": traced_s}


def machine() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "maxram" / "cli.py").is_file():
        print(f"error: no maxram sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / "runs" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = HashRecord(WORK / "hashes" / f"{code_digest(SRC)[:16]}-{args.workload}-{args.seed}.json")
    gate = Gate(record)
    insts = instances(args.workload, args.seed)
    run = traced if args.trace else untraced
    try:
        metrics, info = run(args, insts, work, gate)
    except Terminated:
        return 143
    record.save()

    units = PER_LAYER if args.trace else END_TO_END
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "loop": "closed, one client, one command at a time",
        "machine": machine(),
        "failed_frac": gate.failed / gate.attempted,
        **info,
    }
    for failure in gate.failures:
        print(f"gate: {failure}", file=sys.stderr)
    print("summary: " + json.dumps(summary))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
