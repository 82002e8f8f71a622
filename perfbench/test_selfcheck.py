"""Self-check of the benchmark on the tiny scene; runs in well under a minute.

    python3 -m pytest perfbench/test_selfcheck.py -q

Checks that every metric BENCHMARK.json names is printed with its unit in
both modes, that a corrupted output file fails the digest check, and that
the benchmark refuses to run where the vpskit sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from pipeline import COMMANDS, digest_outputs, run_cli_pass  # noqa: E402
from scenes import WORKLOADS, make_scene  # noqa: E402


def _spec(section: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[section]}


def _run(trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "tiny", "--seed", str(bench.REFERENCE_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    result = _result(_run(0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _spec("end_to_end")
    assert result["metrics"]["vpq_mean"]["value"] == json.loads(
        (HERE / "reference" / "tiny.json").read_text()
    )["vpq_mean"]


def test_traced_run_prints_every_layer_metric_and_keeps_span_invariants():
    result = _result(_run(1))
    assert result["correct"], result
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _spec("per_layer")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["metrics.pq_stats_s"] <= m["metrics.vpq_s"]
    assert m["metrics.vpq_self_s"] <= m["metrics.vpq_s"]
    assert m["warpmatch.matched"] + m["warpmatch.fresh"] == m["warpmatch.instances"]


def test_missing_wrapped_function_is_reported_absent(monkeypatch):
    bench.import_vpskit()
    import spans

    gone = ("vpskit.metrics", "no_such_function", "metrics.gone")
    monkeypatch.setattr(spans, "WRAPPED", spans.WRAPPED + (gone,))
    monkeypatch.setitem(spans.BUSY, "metrics.gone_s", "metrics.gone")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["vpskit.metrics.no_such_function"]
    assert "metrics.gone_s" not in tracer.metrics()
    assert "metrics.vpq_s" in tracer.metrics()


def test_corrupted_output_file_fails_the_digest_check():
    workload = WORKLOADS["tiny"]
    scene, corrupt_seed = make_scene(workload, bench.REFERENCE_SEED)
    reference = bench.load_reference("tiny", bench.REFERENCE_SEED)
    pass_dir = bench.OUT / "selfcheck"
    results = run_cli_pass(workload, scene, corrupt_seed, pass_dir, bench.SRC)
    clean = bench.Checker(reference)
    for r in results:
        clean.command("clean", r.command, r.exit_code, r.digests)
    assert (clean.attempted, clean.failed) == (len(COMMANDS), 0), clean.problems

    victim = pass_dir / "warped" / "instances_0002.lmap"
    data = bytearray(victim.read_bytes())
    data[-1] ^= 1
    victim.write_bytes(bytes(data))
    corrupted = bench.Checker(reference)
    corrupted.command("corrupted", "warpmatch", 0, digest_outputs(pass_dir, "warpmatch"))
    assert corrupted.failed == 1
    assert "differs warped/instances_0002.lmap" in corrupted.problems[0]
    shutil.rmtree(pass_dir)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
