"""A/B timing of vpskit commands: two commits, alternated run by run on fixed inputs.

Usage (from the repository root; git must know both revisions):

    python3 bench/ab.py --base HEAD~1 --change HEAD --out BENCH_change.json
    python3 bench/ab.py --base HEAD~1 --change HEAD --pairs 3 --seeds 1 --cityscapes-pairs 0 --out ab.json

Each revision is unpacked with ``git archive`` into the work directory, so
neither tree holds bytecode, and every child runs with
PYTHONDONTWRITEBYTECODE=1, so neither writes any. For each workload and
seed, perfbench's scene goes once through the base revision's pipeline; its
outputs are the fixed inputs of every timed run. A pair runs one command as
``python -m vpskit.cli`` on both revisions, alternating which goes first,
each into an output path of its own that is hashed against the base
pipeline's output and then removed; each row records that output's digest,
so records made at different commits check one another. Wall time, the
child's own peak RSS, its minor page faults and its CPU time (user plus
system, which counts what numpy's BLAS threads spin as well) come from this
script's own ``wait4`` call on the child (perfbench's ``run_subprocess``
returns the peak alone).

The optional Cityscapes-size rows time every command of ``--commands`` on a
2048x1024x30 scene (40 actors, big-frames flags, seed 1), with
``--cityscapes-pairs`` pairs each: the pass takes about 3 GB of disk, and a
command up to about 1.5 GB of memory on the side that holds whole sequences.

perfbench's files are imported, not changed. The result is one JSON file:
per row the medians, quartiles, peak RSS, minor page fault and CPU time medians,
every run's figures, the pairs each side won, and whether the change's gain
meets the claim rule (at least ten pairs, nine tenths of them won, and a
median gap wider than the base's interquartile range). When all five
commands run, ``pass_peak_rss_mb`` holds, per workload and seed, each
pair's largest peak over the five commands on each side: the quantity that
perfbench reports as ``peak_rss_mb``, the largest child of a pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from pipeline import COMMAND_TIMEOUT_S, COMMANDS, OUTPUTS, command_argv, vpskit_env  # noqa: E402
from scenes import WORKLOADS, make_scene  # noqa: E402

CITYSCAPES = dataclasses.replace(
    WORKLOADS["big-frames"], name="cityscapes", width=2048, height=1024, frames=30, actors=40
)
CITYSCAPES_SEED = 1
CITYSCAPES_EVAL_TARGET_S = 4.0
CLAIM_MIN_PAIRS = 10


def unpack(rev: str, dest: Path) -> str:
    """Extract ``rev`` into dest with git archive; returns its full commit hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return sha


def tree_digest(path: Path) -> str:
    """One sha256 over every file under path (or of path itself), with relative names."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(p.read_bytes()).digest())
    return digest.hexdigest()


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def run_child(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, float, int, float, str]:
    """Run one command; returns (wall s, exit code, peak RSS MB, minor page faults, CPU s, stderr).

    The last three figures come from this child's own rusage via wait4 (ru_maxrss is in KiB on
    Linux); CPU is user plus system time.
    """
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")
    err_path.unlink()
    cpu = usage.ru_utime + usage.ru_stime
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_minflt, cpu, stderr


def prepare(workload, seed: int, pass_dir: Path, env: dict, commands) -> int:
    """Run the base pipeline up to the last of ``commands``; returns the corrupt seed."""
    scene, corrupt_seed = make_scene(workload, seed)
    pass_dir.mkdir(parents=True)
    (pass_dir / "scene.json").write_text(json.dumps(scene, indent=1, sort_keys=True) + "\n")
    for command in COMMANDS[: max(COMMANDS.index(c) for c in commands) + 1]:
        argv = [sys.executable, "-m", "vpskit.cli", *command_argv(workload, command, corrupt_seed)]
        _, code, _, _, _, stderr = run_child(argv, pass_dir, env)
        if code != 0:
            raise RuntimeError(f"{workload.name} seed {seed} {command}: {stderr}")
    return corrupt_seed


def timed_argv(workload, command: str, corrupt_seed: int) -> tuple[list[str], str]:
    """The command line of a timed run, its output renamed so that the fixed inputs stay."""
    out = "ab-" + OUTPUTS[command]
    argv = [out if arg == OUTPUTS[command] else arg for arg in command_argv(workload, command, corrupt_seed)]
    return [sys.executable, "-m", "vpskit.cli", *argv], out


def stats(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3}


def pass_peaks(rows: list[dict]) -> dict:
    """Per side, each pair's largest peak RSS over the rows (one per command) of one workload and seed."""
    runs = {
        name: [max(run) for run in zip(*(row["runs_peak_rss_mb"][name] for row in rows))]
        for name in ("base", "change")
    }
    return {
        **{key: rows[0][key] for key in ("workload", "size", "seed", "pairs")},
        "base_median": median(runs["base"]),
        "change_median": median(runs["change"]),
        "change_lower_pairs": sum(c < b for b, c in zip(runs["base"], runs["change"])),
        "runs": runs,
    }


def measure(workload, seed: int, commands, pairs: int, work: Path, sides: dict) -> list[dict]:
    pass_dir = work / f"{workload.name}-seed{seed}"
    corrupt_seed = prepare(workload, seed, pass_dir, sides["base"]["env"], commands)
    rows = []
    for command in commands:
        argv, out = timed_argv(workload, command, corrupt_seed)
        want = tree_digest(pass_dir / OUTPUTS[command])
        runs = {name: {"s": [], "rss": [], "minflt": [], "cpu": []} for name in sides}
        identical = True
        for pair in range(pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for name in order:
                seconds, code, rss, minflt, cpu, stderr = run_child(argv, pass_dir, sides[name]["env"])
                if code != 0:
                    raise RuntimeError(f"{name} {workload.name} seed {seed} {command}: {stderr}")
                identical &= tree_digest(pass_dir / out) == want
                remove(pass_dir / out)
                runs[name]["s"].append(seconds)
                runs[name]["rss"].append(rss)
                runs[name]["minflt"].append(minflt)
                runs[name]["cpu"].append(cpu)
        base, change = stats(runs["base"]["s"]), stats(runs["change"]["s"])
        wins = sum(c < b for b, c in zip(runs["base"]["s"], runs["change"]["s"]))
        losses = sum(c > b for b, c in zip(runs["base"]["s"], runs["change"]["s"]))
        row = {
            "workload": workload.name,
            "size": f"{workload.width}x{workload.height}x{workload.frames}",
            "seed": seed,
            "command": command,
            "pairs": pairs,
            "base_s": base,
            "change_s": change,
            "base_peak_rss_mb_median": median(runs["base"]["rss"]),
            "change_peak_rss_mb_median": median(runs["change"]["rss"]),
            "base_minflt_median": median(runs["base"]["minflt"]),
            "change_minflt_median": median(runs["change"]["minflt"]),
            "base_cpu_s_median": median(runs["base"]["cpu"]),
            "change_cpu_s_median": median(runs["change"]["cpu"]),
            "change_faster_pairs": wins,
            "change_slower_pairs": losses,
            "median_change_pct": 100.0 * (change["median"] / base["median"] - 1.0),
            "claim_rule_met": pairs >= CLAIM_MIN_PAIRS
            and wins >= 0.9 * pairs
            and base["median"] - change["median"] > base["q3"] - base["q1"],
            "outputs_identical": identical,
            "output_sha256": want,
            "runs_s": {name: runs[name]["s"] for name in sides},
            "runs_peak_rss_mb": {name: runs[name]["rss"] for name in sides},
            "runs_minflt": {name: runs[name]["minflt"] for name in sides},
            "runs_cpu_s": {name: runs[name]["cpu"] for name in sides},
        }
        if command == "eval":
            row["vpq_mean"] = json.loads((pass_dir / OUTPUTS["eval"]).read_text())["vpq"]["mean"]
        if workload is CITYSCAPES and command == "eval":
            row["eval_target_s"] = CITYSCAPES_EVAL_TARGET_S
        rows.append(row)
        print(
            f"{workload.name:10s} seed {seed} {command:9s} base {base['median']:.3f} s "
            f"change {change['median']:.3f} s ({row['median_change_pct']:+.1f}%), "
            f"faster {wins}/{pairs}, rss {row['base_peak_rss_mb_median']:.2f} -> "
            f"{row['change_peak_rss_mb_median']:.2f} MB, minflt {row['base_minflt_median']:.0f} -> "
            f"{row['change_minflt_median']:.0f}, cpu {row['base_cpu_s_median']:.3f} -> "
            f"{row['change_cpu_s_median']:.3f} s, identical {identical}",
            flush=True,
        )
    shutil.rmtree(pass_dir)
    return rows


def machine() -> dict:
    import numpy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workloads", nargs="+", default=["big-frames", "crowd"], choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 7])
    parser.add_argument("--commands", nargs="+", default=list(COMMANDS), choices=COMMANDS)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument(
        "--cityscapes-pairs", type=int, default=5, help="pairs per command at 2048x1024x30; 0 skips"
    )
    parser.add_argument("--work", default=None, help="work directory (default: a temporary one)")
    parser.add_argument("--out", required=True, help="the JSON file to write; an existing one is overwritten")
    args = parser.parse_args(argv)

    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # both sides start from source, as unpacked
    work = Path(args.work or tempfile.mkdtemp(prefix="vpskit-ab-"))
    work.mkdir(parents=True, exist_ok=True)
    sides, revs = {}, {}
    try:
        for name in ("base", "change"):
            tree = work / name
            revs[name] = unpack(getattr(args, name), tree)
            sides[name] = {"env": vpskit_env(tree / "src")}
        groups = [
            measure(WORKLOADS[workload], seed, args.commands, args.pairs, work, sides)
            for workload in args.workloads
            for seed in args.seeds
        ]
        if args.cityscapes_pairs:
            cityscapes = measure(CITYSCAPES, CITYSCAPES_SEED, args.commands, args.cityscapes_pairs, work, sides)
            groups.append(cityscapes)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    doc = {
        "what": "wall time, peak RSS, minor page faults and CPU time of each vpskit command, base "
        "against change, alternated pair by pair on fixed inputs",
        "command": (
            f"python3 bench/ab.py --base {args.base} --change {args.change} --workloads "
            f"{' '.join(args.workloads)} --seeds {' '.join(map(str, args.seeds))} --commands "
            f"{' '.join(args.commands)} --pairs {args.pairs} --cityscapes-pairs {args.cityscapes_pairs}"
        ),
        "base": revs["base"],
        "change": revs["change"],
        "env": {"PYTHONDONTWRITEBYTECODE": "1"},
        "machine": machine(),
        "rows": [row for rows in groups for row in rows],
    }
    if set(args.commands) == set(COMMANDS):
        doc["pass_peak_rss_mb"] = [pass_peaks(rows) for rows in groups]
        for peak in doc["pass_peak_rss_mb"]:
            print(
                f"{peak['workload']:10s} seed {peak['seed']} pass peak rss {peak['base_median']:.2f} -> "
                f"{peak['change_median']:.2f} MB, lower {peak['change_lower_pairs']}/{peak['pairs']}",
                flush=True,
            )
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if all(row["outputs_identical"] for row in doc["rows"]) else 1


if __name__ == "__main__":
    sys.exit(main())
