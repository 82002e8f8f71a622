"""vpskit benchmark: per-command CLI timings plus a traced per-layer pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload crowd --seed 1 --seconds 60 --trace 1
    python3 perfbench/run.py --record-reference     # rewrite reference digests

``--trace 0`` runs the pipeline synth -> warpmatch -> fillfuse -> eval ->
render as separate ``python -m vpskit.cli`` processes, repeated until
``--seconds`` is used up (at least MIN_PASSES times), and reports the
end-to-end metrics as medians over the passes. ``--trace 1`` runs one CLI
pass, then alternates untraced and traced in-process passes over the same
calls and reports the per-layer metrics of BENCHMARK.json, plus the tracing
overhead.

Every output file is hashed. At the reference seed the hashes must equal
the ones stored in perfbench/reference/; at any other seed every pass must
reproduce the first CLI pass byte for byte. A command fails when it exits
nonzero or its outputs differ. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 1
SETUP_PROBES = 3
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

from pipeline import (  # noqa: E402
    COMMANDS,
    diff_digests,
    digest_outputs,
    measure_setup,
    run_cli_pass,
    run_inprocess_pass,
)
from scenes import WORKLOADS, make_scene  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or spec)."""


def load_spec(trace: bool) -> dict[str, str]:
    """Metric name -> unit for the metrics BENCHMARK.json lists for this mode."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    doc = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def import_vpskit():
    """Import vpskit from this checkout's src/, never from an installed copy."""
    if not (SRC / "vpskit" / "cli.py").is_file():
        raise BenchError(f"no vpskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vpskit.cli

    if Path(vpskit.cli.__file__).resolve().parent != (SRC / "vpskit").resolve():
        raise BenchError(f"imported vpskit from {vpskit.cli.__file__}, not {SRC}")
    return vpskit.cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if seed != REFERENCE_SEED or not path.is_file():
        return None
    return json.loads(path.read_text())


def report_value(pass_dir: Path) -> float:
    return float(json.loads((pass_dir / "report.json").read_text())["vpq"]["mean"])


class Checker:
    """Compares each command's outputs with the reference or the first pass."""

    def __init__(self, reference: dict | None):
        self.expected: dict[str, dict] = dict(reference["digests"]) if reference else {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, label: str, command: str, exit_code: int, digests: dict, stderr: str = "") -> None:
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}: {stderr.strip()[-300:]}"]
        elif command in self.expected:
            problems = diff_digests(digests, self.expected[command])
        else:
            # Held-out seed: the first pass sets what later passes must reproduce.
            self.expected[command] = digests
            problems = []
        if problems:
            self.failed += 1
            self.problems.append(f"{label} {command}: " + "; ".join(problems[:5]))


def run_untraced(workload, scene, corrupt_seed, seconds, checker, work) -> dict[str, float]:
    """Set-up probes, then CLI passes until the time is up."""
    deadline = time.perf_counter() + seconds
    setup = []
    for _ in range(SETUP_PROBES):
        value, code = measure_setup(SRC, work)
        if code != 0:
            raise BenchError(f"vpskit --help exited {code}")
        setup.append(value)

    passes = []
    durations = []
    while True:
        started = time.perf_counter()
        pass_dir = work / "cli"
        results = run_cli_pass(workload, scene, corrupt_seed, pass_dir, SRC)
        for r in results:
            checker.command(f"pass {len(passes)}", r.command, r.exit_code, r.digests, r.stderr)
        if len(results) < len(COMMANDS):
            checker.attempted += len(COMMANDS) - len(results)
            checker.failed += len(COMMANDS) - len(results)
            break
        passes.append({r.command: r for r in results})
        print(f"pass {len(passes) - 1}: " + " ".join(f"{r.command} {r.seconds:.3f}s" for r in results))
        vpq_mean = report_value(pass_dir)
        durations.append(time.perf_counter() - started)
        if len(passes) >= MIN_PASSES and time.perf_counter() + median(durations) > deadline:
            break

    print("setup: " + " ".join(f"{v:.3f}s" for v in setup))
    print(f"samples: {len(passes)} passes, {len(setup)} set-up probes; metrics are their medians")
    metrics = {"setup_s": median(setup)}
    if not passes:
        return metrics
    for command in COMMANDS:
        metrics[f"{command}_s"] = median([p[command].seconds for p in passes])
    metrics["pipeline_s"] = median([sum(r.seconds for r in p.values()) for p in passes])
    metrics["peak_rss_mb"] = median([max(r.peak_rss_mb for r in p.values()) for p in passes])
    metrics["vpq_mean"] = vpq_mean
    return metrics


def run_traced(workload, scene, corrupt_seed, seconds, checker, work) -> dict[str, float]:
    from spans import Tracer

    deadline = time.perf_counter() + seconds
    # One CLI pass anchors the bytes the in-process passes must reproduce.
    for r in run_cli_pass(workload, scene, corrupt_seed, work / "cli", SRC):
        checker.command("cli pass", r.command, r.exit_code, r.digests, r.stderr)

    def in_process(label: str, tracer: Tracer | None) -> float:
        pass_dir = work / "inproc"
        hook = None
        if tracer is not None:
            def hook(command):
                tracer.run = f"{label}:{command}"
        seconds_taken, codes = run_inprocess_pass(workload, scene, corrupt_seed, pass_dir, hook)
        for command, code in zip(COMMANDS, codes):
            digests = digest_outputs(pass_dir, command) if code == 0 else {}
            checker.command(label, command, code, digests)
        return seconds_taken

    def traced_pass() -> float:
        tracer = Tracer()
        tracer.install()
        try:
            seconds_taken = in_process(f"traced {len(traced)}", tracer)
        finally:
            tracer.uninstall()
        for problem in tracer.check():
            checker.problems.append(f"trace: {problem}")
            checker.failed += 1
        layer_runs.append(tracer.metrics())
        tracers.append(tracer)
        return seconds_taken

    plain, traced, layer_runs, tracers = [], [], [], []
    while True:
        # Alternate which side runs first so drift does not favour either.
        if len(plain) % 2:
            traced.append(traced_pass())
            plain.append(in_process(f"untraced {len(plain)}", None))
        else:
            plain.append(in_process(f"untraced {len(plain)}", None))
            traced.append(traced_pass())
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    tracer = tracers[-1]

    tracer.write_jsonl(work / "trace.jsonl")
    for name in tracer.absent:
        print(f"absent: {name} no longer exists; its metrics are left out")
    metrics = {name: median([run[name] for run in layer_runs]) for name in layer_runs[0]}
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    metrics["trace.untraced_pass_s"] = median(plain)
    return metrics


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, int]:
    spec = load_spec(trace)
    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    import_vpskit()
    workload = WORKLOADS[workload_name]
    scene, corrupt_seed = make_scene(workload, seed)
    reference = load_reference(workload_name, seed)
    work = OUT / f"{workload_name}-seed{seed}-trace{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    print(
        f"workload {workload_name} seed {seed}: {workload.width}x{workload.height}x"
        f"{workload.frames}, {workload.actors} actors, "
        + ("reference digests" if reference else "held-out seed: outputs checked against the first pass")
    )

    checker = Checker(reference)
    runner = run_traced if trace else run_untraced
    values = runner(workload, scene, corrupt_seed, seconds, checker, work)
    if not trace:
        values["success_rate"] = (checker.attempted - checker.failed) / checker.attempted

    metrics = {}
    for name, unit in spec.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            print(f"absent: metric {name} could not be measured")
    unexpected = sorted(set(values) - set(spec))
    if unexpected:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unexpected}")

    for problem in checker.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = checker.failed == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    return result, 0 if correct else 1


def machine() -> dict:
    """The machine the references were recorded on: CPU, caches, versions, commit."""
    info = environment()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            info["cpu"] = line.split(":", 1)[1].strip()
            break
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            info[f"L{level}"] = (index / "size").read_text().strip()
    if (ROOT / ".git").exists():
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    info["seed"] = REFERENCE_SEED
    return info


def record_reference() -> None:
    """Rewrite perfbench/reference/*.json from one CLI pass at the reference seed."""
    import_vpskit()
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / "machine.json").write_text(json.dumps(machine(), indent=1, sort_keys=True) + "\n")
    for name in WORKLOADS:
        workload = WORKLOADS[name]
        scene, corrupt_seed = make_scene(workload, REFERENCE_SEED)
        pass_dir = OUT / f"reference-{name}"
        results = run_cli_pass(workload, scene, corrupt_seed, pass_dir, SRC)
        failed = [r.command for r in results if r.exit_code != 0]
        if failed or len(results) != len(COMMANDS):
            raise BenchError(f"{name}: commands failed: {failed}")
        doc = {
            "workload": name,
            "seed": REFERENCE_SEED,
            "vpq_mean": report_value(pass_dir),
            "digests": {r.command: r.digests for r in results},
        }
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{name}: vpq_mean {doc['vpq_mean']}, {sum(len(d) for d in doc['digests'].values())} files")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        result, code = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
