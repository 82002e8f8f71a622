"""The five-command vpskit pipeline, run as subprocesses or in-process.

Each pass writes into its own directory: ``synth`` -> ``warpmatch`` ->
``fillfuse`` -> ``eval`` -> ``render``. Every command's outputs are hashed
so a pass can be compared with a stored reference or with another pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from scenes import Workload

COMMANDS = ("synth", "warpmatch", "fillfuse", "eval", "render")
# Output of each command, relative to the pass directory.
OUTPUTS = {
    "synth": "data",
    "warpmatch": "warped",
    "fillfuse": "fused",
    "eval": "report.json",
    "render": "frames",
}
SCENE_FILE = "scene.json"
COMMAND_TIMEOUT_S = 150.0


def command_argv(workload: Workload, command: str, corrupt_seed: int) -> list[str]:
    """vpskit arguments for one command; paths are relative to the pass directory."""
    if command == "synth":
        return [
            "synth", "--config", SCENE_FILE, "--out", "data",
            *workload.synth_flags, "--corrupt-seed", str(corrupt_seed),
        ]
    if command == "warpmatch":
        return [
            "warpmatch", "--panoptic", "data/corrupt/manifest.json",
            "--flows", "data/corrupt/manifest.json", "--threshold", "0.3",
            "--matcher", "greedy", "--out", "warped",
        ]
    if command == "fillfuse":
        return [
            "fillfuse", "--semantic", "data/semantic/manifest.json",
            "--tracks", f"data/{workload.fillfuse_tracks}", "--out", "fused",
        ]
    if command == "eval":
        return [
            "eval", "--pred", "warped/manifest.json", "--gt", "data/gt/manifest.json",
            "--windows", "1,2,3,4", "--report", "report.json",
        ]
    if command == "render":
        return ["render", "--in", "warped/manifest.json", "--out", "frames"]
    raise ValueError(f"unknown command {command!r}")


def prepare_pass_dir(pass_dir: Path, scene: dict) -> None:
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    (pass_dir / SCENE_FILE).write_text(json.dumps(scene, indent=1, sort_keys=True) + "\n")


def digest_outputs(pass_dir: Path, command: str) -> dict[str, str]:
    """sha256 of every file the command wrote, keyed by path relative to pass_dir."""
    root = pass_dir / OUTPUTS[command]
    files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    return {
        p.relative_to(pass_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in files
    }


def diff_digests(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Human-readable differences between two digest maps (empty when equal)."""
    problems = [f"missing {k}" for k in sorted(want.keys() - got.keys())]
    problems += [f"unexpected {k}" for k in sorted(got.keys() - want.keys())]
    problems += [f"differs {k}" for k in sorted(want.keys() & got.keys()) if got[k] != want[k]]
    return problems


@dataclass
class CommandResult:
    command: str
    seconds: float
    exit_code: int
    peak_rss_mb: float
    digests: dict[str, str] = field(default_factory=dict)
    stderr: str = ""


def run_subprocess(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, float, str]:
    """Run one command; returns (wall seconds, exit code, peak RSS MB, stderr).

    The peak RSS comes from this child's own rusage via wait4, not from
    RUSAGE_CHILDREN, which keeps the maximum over every child ever reaped.
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
    # ru_maxrss is in KiB on Linux.
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0, stderr


def vpskit_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env


def run_cli_pass(
    workload: Workload, scene: dict, corrupt_seed: int, pass_dir: Path, src_dir: Path
) -> list[CommandResult]:
    """One pass of the pipeline as separate ``python -m vpskit.cli`` processes."""
    prepare_pass_dir(pass_dir, scene)
    env = vpskit_env(src_dir)
    results = []
    for command in COMMANDS:
        argv = [sys.executable, "-m", "vpskit.cli", *command_argv(workload, command, corrupt_seed)]
        seconds, code, rss, stderr = run_subprocess(argv, pass_dir, env)
        digests = digest_outputs(pass_dir, command) if code == 0 else {}
        results.append(CommandResult(command, seconds, code, rss, digests, stderr))
        if code != 0:
            break
    return results


def run_inprocess_pass(
    workload: Workload, scene: dict, corrupt_seed: int, pass_dir: Path, on_command=None
) -> tuple[float, list[int]]:
    """The same commands through ``vpskit.cli.main`` in this process.

    Returns the wall time of the five calls and their exit codes. The
    optional ``on_command(name)`` hook lets a tracer tag spans.
    """
    from vpskit import cli

    prepare_pass_dir(pass_dir, scene)
    codes = []
    previous = Path.cwd()
    os.chdir(pass_dir)
    try:
        start = time.perf_counter()
        for command in COMMANDS:
            if on_command is not None:
                on_command(command)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(command_argv(workload, command, corrupt_seed)))
        seconds = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return seconds, codes


def measure_setup(src_dir: Path, cwd: Path) -> tuple[float, int]:
    """Wall time of a fresh ``python -m vpskit.cli --help`` and its exit code."""
    seconds, code, _, _ = run_subprocess(
        [sys.executable, "-m", "vpskit.cli", "--help"], cwd, vpskit_env(src_dir)
    )
    return seconds, code
