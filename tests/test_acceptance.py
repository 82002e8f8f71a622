"""Acceptance suite: one test per criterion, each printing a pass line.

Pipeline criteria drive the CLI end-to-end through the documented file
formats; unit criteria exercise the library against independent oracles.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    assert_same_stats,
    brute_force_match,
    brute_force_ownership,
    constant_flow,
    decode_flow,
    decode_label_grid,
    generate_scene,
    match_keys,
    match_segments,
    mean_pq_over,
    oracle_pq_stats,
    random_panoptic_map,
    scene_to_dict,
    small_taxonomy,
    zero_flow,
)
from vpskit import io as vio
from vpskit.cli import main
from vpskit.core import FlowField, LabelGrid, PanopticMap, extract_segments
from vpskit.errors import FormatError
from vpskit.fillfuse import TrackedBox, rasterize_ownership
from vpskit.metrics import pq, pq_stats, vpq
from vpskit.rng import Xoshiro256StarStar
from vpskit.synth import Actor, Band, SceneConfig
from vpskit.warpmatch import warp_backward

TAX = small_taxonomy()


def run_cli(argv):
    code = main(argv)
    assert code == 0, f"vpskit {' '.join(argv)} failed with {code}"


def run_cli_json(capsys, argv):
    capsys.readouterr()  # drop anything pending
    run_cli(argv)
    return json.loads(capsys.readouterr().out)


def static_scene_config() -> dict:
    """Criterion 1: 2 static actors, 10 frames."""
    return scene_to_dict(SceneConfig(
        width=64,
        height=48,
        frames=10,
        taxonomy=TAX,
        background=(Band(1, 24), Band(2)),
        actors=(
            Actor("rectangle", 10, 8, (10, 10), (0, 0), 0),
            Actor("disk", 11, 10, (40, 28), (0, 0), 1),
        ),
    ))


def translating_scene_config() -> dict:
    """Criterion 2: 3 actors, integer velocities <= 3 px/frame, 30 frames, 256x128."""
    return scene_to_dict(SceneConfig(
        width=256,
        height=128,
        frames=30,
        taxonomy=TAX,
        background=(Band(2, 60), Band(1)),
        actors=(
            Actor("rectangle", 10, 14, (6, 20), (3, 0), 0),
            Actor("disk", 10, 12, (200, 40), (-3, 0), 1),
            Actor("rectangle", 11, 10, (30, 80), (2, 1), 2),
        ),
    ))


def fillfuse_scene_config() -> dict:
    """Criterion 4: 3 well-separated same-class actors, 10 frames."""
    return scene_to_dict(SceneConfig(
        width=96,
        height=64,
        frames=10,
        taxonomy=TAX,
        background=(Band(2, 20), Band(1)),
        actors=(
            Actor("rectangle", 10, 8, (4, 6), (2, 0), 0),
            Actor("disk", 10, 9, (50, 10), (1, 1), 1),
            Actor("rectangle", 10, 7, (20, 44), (2, 1), 2),
        ),
    ))


def write_scene(tmp_path: Path, doc: dict, name: str) -> Path:
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def recovery_pipeline(capsys, base: Path, scene_doc: dict, threshold: float = 0.3) -> dict:
    """synth --shuffle-ids -> warpmatch -> eval -> render; returns eval report."""
    config = write_scene(base, scene_doc, "scene.json")
    summary = run_cli_json(
        capsys,
        ["synth", "--config", str(config), "--out", str(base / "data"),
         "--shuffle-ids", "--corrupt-seed", "17"],
    )
    wm = run_cli_json(
        capsys,
        ["warpmatch", "--panoptic", summary["corrupt_manifest"],
         "--flows", summary["corrupt_manifest"],
         "--threshold", str(threshold), "--out", str(base / "wm")],
    )
    report = run_cli_json(
        capsys,
        ["eval", "--pred", wm["manifest"], "--gt", summary["gt_manifest"],
         "--report", str(base / "report.json")],
    )
    run_cli(["render", "--in", wm["manifest"], "--out", str(base / "render")])
    return report


def fillfuse_pipeline(capsys, base: Path, drop: float = 0.0) -> tuple[dict, dict]:
    """synth -> fillfuse (optionally with dropped boxes) -> eval; returns (summary, report)."""
    config = write_scene(base, fillfuse_scene_config(), "scene.json")
    synth_args = ["synth", "--config", str(config), "--out", str(base / "data")]
    if drop > 0:
        synth_args += ["--box-drop", str(drop), "--corrupt-seed", "23"]
    summary = run_cli_json(capsys, synth_args)
    tracks = summary.get("corrupt_tracks", summary["tracks"])
    ff = run_cli_json(
        capsys,
        ["fillfuse", "--semantic", summary["semantic_manifest"], "--tracks", tracks,
         "--taxonomy", summary["taxonomy"], "--out", str(base / "ff")],
    )
    report = run_cli_json(
        capsys,
        ["eval", "--pred", ff["manifest"], "--gt", summary["gt_manifest"],
         "--report", str(base / "report.json")],
    )
    run_cli(["render", "--in", ff["manifest"], "--out", str(base / "render")])
    return summary, report


def test_criterion_1_static_scene_recovery(tmp_path, capsys):
    started = time.perf_counter()
    report = recovery_pipeline(capsys, tmp_path, static_scene_config())
    elapsed = time.perf_counter() - started
    # the corruption must actually have shuffled something
    corrupt, _ = vio.load_panoptic_sequence(tmp_path / "data" / "corrupt" / "manifest.json")
    gt, _ = vio.load_panoptic_sequence(tmp_path / "data" / "gt" / "manifest.json")
    assert any(
        not np.array_equal(c.instances.values, g.instances.values)
        for c, g in zip(corrupt, gt)
    )
    for k in (1, 2, 3, 4):
        assert report["vpq"][f"k={k}"] == 1.0
    assert elapsed < 2.0, f"pipeline took {elapsed:.2f}s"
    print(f"CRITERION 1 PASS: static-scene recovery, VPQ^k all 1.0 in {elapsed:.2f}s")


def test_criterion_2_translating_scene_recovery(tmp_path, capsys):
    started = time.perf_counter()
    report = recovery_pipeline(capsys, tmp_path, translating_scene_config())
    elapsed = time.perf_counter() - started
    assert report["vpq"]["mean"] >= 0.99
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    print(
        f"CRITERION 2 PASS: translating-scene recovery, VPQ mean "
        f"{report['vpq']['mean']:.6f} in {elapsed:.2f}s"
    )


def test_criterion_3_threshold_sensitivity(tmp_path, capsys):
    loose = recovery_pipeline(capsys, tmp_path / "loose", translating_scene_config(), threshold=0.3)
    strict = recovery_pipeline(capsys, tmp_path / "strict", translating_scene_config(), threshold=0.95)
    assert strict["vpq"]["k=4"] < loose["vpq"]["k=4"]
    print(
        f"CRITERION 3 PASS: VPQ^4 {strict['vpq']['k=4']:.6f} @ theta=0.95 < "
        f"{loose['vpq']['k=4']:.6f} @ theta=0.3"
    )


def test_criterion_4_fillfuse_fidelity(tmp_path, capsys):
    # exact inputs reproduce the ground truth bit for bit
    summary, report = fillfuse_pipeline(capsys, tmp_path / "exact")
    pred, _ = vio.load_panoptic_sequence(Path(tmp_path / "exact" / "ff" / "manifest.json"))
    gt, _ = vio.load_panoptic_sequence(summary["gt_manifest"])
    for p, g in zip(pred, gt):
        assert p.instances.values.tobytes() == g.instances.values.tobytes()
        assert p.classes.values.tobytes() == g.classes.values.tobytes()
    assert report["vpq"]["mean"] == 1.0

    # 20% box drop: thing PQ decreases on affected frames, stuff stays at 1.0
    summary, _ = fillfuse_pipeline(capsys, tmp_path / "dropped", drop=0.2)
    pred, _ = vio.load_panoptic_sequence(Path(tmp_path / "dropped" / "ff" / "manifest.json"))
    gt, _ = vio.load_panoptic_sequence(summary["gt_manifest"])
    kept = vio.read_tracks(summary["corrupt_tracks"])
    full = vio.read_tracks(summary["tracks"])
    dropped_frames = {
        t
        for t in range(len(gt))
        if sum(b.frame == t for b in kept) < sum(b.frame == t for b in full)
    }
    assert dropped_frames and len(dropped_frames) < len(gt)
    stuff_ids = {e.class_id for e in TAX.entries if e.kind == "stuff"}
    thing_ids = set(TAX.thing_class_ids())
    for t, (p, g) in enumerate(zip(pred, gt)):
        frame_report = pq(p, g, TAX)
        for class_id, metrics in frame_report.per_class.items():
            if class_id in stuff_ids:
                assert metrics.pq == 1.0
        thing_pq = mean_pq_over(frame_report, thing_ids)
        if t in dropped_frames:
            assert thing_pq < 1.0
        else:
            assert thing_pq == 1.0
    print(
        f"CRITERION 4 PASS: exact fillfuse == GT; {len(dropped_frames)} dropped-box "
        "frames lower thing PQ with stuff PQ pinned at 1.0"
    )


def test_criterion_5_overlap_determinism():
    rng = Xoshiro256StarStar(0xC5)
    cases = 0
    for _ in range(100):
        w, h = rng.next_int(4, 16), rng.next_int(4, 16)
        boxes = []
        for _ in range(rng.next_int(2, 5)):
            x0 = rng.next_int(0, w - 2)
            y0 = rng.next_int(0, h - 2)
            boxes.append(
                TrackedBox(
                    frame=0,
                    track_id=rng.next_int(1, 7),
                    class_id=10,
                    x0=x0,
                    y0=y0,
                    x1=x0 + rng.next_int(1, 8),
                    y1=y0 + rng.next_int(1, 8),
                )
            )
        baseline = rasterize_ownership(boxes, w, h).values
        assert np.array_equal(
            baseline, rasterize_ownership(boxes[::-1], w, h).values
        ), "ownership depends on box order"
        assert np.array_equal(
            baseline.astype(np.int64), brute_force_ownership(boxes, w, h)
        ), "ownership disagrees with the per-pixel oracle"
        cases += 1
    assert cases == 100
    print("CRITERION 5 PASS: ownership order-invariant and equal to brute force on 100 grids")


def test_criterion_6_metric_oracle_equivalence():
    rng = Xoshiro256StarStar(0xC6)
    for _ in range(200):
        w, h = rng.next_int(2, 16), rng.next_int(2, 16)
        pred = random_panoptic_map(rng, w, h)
        gt = random_panoptic_map(rng, w, h)
        pred_segs = extract_segments(pred, TAX)
        gt_segs = extract_segments(gt, TAX)
        tps, _, _ = match_segments(pred_segs, gt_segs)
        assert match_keys(tps) == brute_force_match(pred_segs, gt_segs)
        assert_same_stats(pq_stats(pred, gt, TAX), oracle_pq_stats(pred, gt, TAX))
        if extract_segments(pred, TAX):
            assert pq(pred, pred, TAX).pq == 1.0

    # two equal-area disjoint objects with ids swapped in frame 2: VPQ^2 = 0
    classes = np.zeros((1, 4), dtype=np.int64)
    classes[0, 0] = classes[0, 2] = 10
    inst_a = np.zeros((1, 4), dtype=np.int64)
    inst_a[0, 0], inst_a[0, 2] = 1, 2
    inst_b = np.zeros((1, 4), dtype=np.int64)
    inst_b[0, 0], inst_b[0, 2] = 2, 1
    gt_seq = [
        PanopticMap(LabelGrid(classes), LabelGrid(inst_a)),
        PanopticMap(LabelGrid(classes), LabelGrid(inst_a)),
    ]
    pred_seq = [gt_seq[0], PanopticMap(LabelGrid(classes), LabelGrid(inst_b))]
    assert vpq(pred_seq, gt_seq, TAX, window_sizes=(2,)).vpq_per_k[2] == 0.0
    print("CRITERION 6 PASS: 200 map pairs: engine = oracle = brute force; pq(x,x)=1; id-swap VPQ^2=0")


def test_criterion_7_warp_identity_and_shift():
    # identity: zero flow leaves grids bit-exact
    rng = Xoshiro256StarStar(0xC7)
    pmap = random_panoptic_map(rng, 12, 9)
    warped = warp_backward(pmap, zero_flow(12, 9))
    assert warped.instances.values.tobytes() == pmap.instances.values.tobytes()
    assert warped.classes.values.tobytes() == pmap.classes.values.tobytes()

    # constant integer shift of the 4x4 block example
    inst = np.zeros((4, 4), dtype=np.int64)
    inst[1:3, 2:4] = 7
    cls = np.where(inst == 7, 10, 1)
    shifted = PanopticMap(LabelGrid(cls), LabelGrid(inst))
    warped = warp_backward(shifted, constant_flow(4, 4, 1.0, 0.0))
    expected = np.zeros((4, 4), dtype=np.uint32)
    expected[1:3, 1:3] = 7
    assert np.array_equal(warped.instances.values, expected)

    # GT flow reproduces the previous instance grid on co-visible pixels
    config = SceneConfig.from_dict(translating_scene_config())
    bundle = generate_scene(config)
    for t in range(1, config.frames):
        prev = bundle.panoptic[t - 1].instances.values
        curr = bundle.panoptic[t].instances.values
        warped = warp_backward(bundle.panoptic[t], bundle.flows[t - 1]).instances
        h, w = prev.shape
        ys, xs = np.mgrid[0:h, 0:w]
        covisible = np.zeros((h, w), dtype=bool)
        for i, actor in enumerate(config.actors):
            vx, vy = int(actor.velocity[0]), int(actor.velocity[1])
            qx, qy = xs + vx, ys + vy
            ok = (qx >= 0) & (qx < w) & (qy >= 0) & (qy < h)
            dest = curr[np.clip(qy, 0, h - 1), np.clip(qx, 0, w - 1)] == i + 1
            covisible |= (prev == i + 1) & ok & dest
        covisible |= (prev == 0) & (curr == 0)
        assert np.array_equal(warped.values[covisible], prev[covisible])
    print("CRITERION 7 PASS: zero-flow identity, exact shift, GT-flow round trip")


def test_criterion_8_round_trip_io(tmp_path):
    rng = Xoshiro256StarStar(0xC8)
    # 400 label grids + 300 flow fields + 300 track lists = 1000 round trips
    for _ in range(400):
        w, h = rng.next_int(1, 12), rng.next_int(1, 12)
        values = np.array(
            [[rng.next_below(1 << 32) for _ in range(w)] for _ in range(h)], dtype=np.int64
        )
        grid = LabelGrid(values)
        assert decode_label_grid(vio.encode_label_grid(grid)) == grid
    for _ in range(300):
        w, h = rng.next_int(1, 10), rng.next_int(1, 10)
        vec = np.array(
            [
                [[rng.next_int(-800, 800) / 16.0, rng.next_int(-800, 800) / 16.0] for _ in range(w)]
                for _ in range(h)
            ],
            dtype=np.float32,
        )
        flow = FlowField(vec)
        assert decode_flow(vio.encode_flow(flow)).vectors.tobytes() == flow.vectors.tobytes()
    path = tmp_path / "t.jsonl"
    for _ in range(300):
        boxes = []
        for _ in range(rng.next_below(6)):
            x0 = rng.next_int(-8, 30) + rng.next_below(4) / 4.0
            y0 = rng.next_int(-8, 30) + rng.next_below(4) / 4.0
            boxes.append(
                TrackedBox(
                    frame=rng.next_below(12),
                    track_id=rng.next_int(1, 40),
                    class_id=rng.next_int(0, 20),
                    x0=x0,
                    y0=y0,
                    x1=x0 + rng.next_int(1, 12) / 2.0,
                    y1=y0 + rng.next_int(1, 12) / 2.0,
                )
            )
        vio.write_tracks(boxes, path)
        read = vio.read_tracks(path)
        key = lambda b: (b.frame, b.track_id, b.x0, b.y0)
        assert sorted(read, key=key) == sorted(boxes, key=key)

    # malformed inputs give structured errors, never crashes
    good_grid = vio.encode_label_grid(LabelGrid(np.array([[1, 2], [3, 4]])))
    good_flow = vio.encode_flow(constant_flow(2, 2, 1.0, -1.0))
    hostile = [
        b"",
        b"LM",
        b"XXXX" + good_grid[4:],
        good_grid[:10],
        good_grid[:-3],
        good_grid + b"!",
        b"LMAP" + struct.pack("<II", 0, 1),
        b"LMAP" + struct.pack("<II", 1 << 20, 1 << 20),
    ]
    for data in hostile:
        with pytest.raises(FormatError):
            decode_label_grid(data)
    hostile_flow = [
        b"",
        b"\x00\x00\x00\x00" + good_flow[4:],
        good_flow[:11],
        good_flow[:-1],
        good_flow + b"\x00",
        struct.pack("<fii", 202021.25, -3, 2),
        struct.pack("<fii", 202021.25, 1, 1) + struct.pack("<ff", float("inf"), 0.0),
    ]
    for data in hostile_flow:
        with pytest.raises(FormatError):
            decode_flow(data)
    bad_tracks = [
        "not json",
        '["list"]',
        '{"frame": 0}',
        '{"frame": 0, "track_id": 1, "class_id": 1, "x0": 0, "y0": 0, "x1": 0, "y1": 1}',
        '{"frame": 0, "track_id": 1, "class_id": 1, "x0": 0, "y0": 0, "x1": 1, "y1": 1, "extra": 2}',
        '{"frame": 0.5, "track_id": 1, "class_id": 1, "x0": 0, "y0": 0, "x1": 1, "y1": 1}',
    ]
    for line in bad_tracks:
        path.write_text(line + "\n")
        with pytest.raises(FormatError):
            vio.read_tracks(path)
    print("CRITERION 8 PASS: 1000 round trips bit-exact; malformed inputs -> structured errors")


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    runs = []
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        recovery_pipeline(capsys, base / "static", static_scene_config())
        recovery_pipeline(capsys, base / "moving", translating_scene_config())
        recovery_pipeline(capsys, base / "strict", translating_scene_config(), threshold=0.95)
        fillfuse_pipeline(capsys, base / "fillfuse", drop=0.2)
        runs.append(_tree_bytes(base))
    assert runs[0].keys() == runs[1].keys()
    diffs = [name for name in runs[0] if runs[0][name] != runs[1][name]]
    assert not diffs, f"non-deterministic outputs: {diffs}"
    print(
        f"CRITERION 9 PASS: {len(runs[0])} files byte-identical across reruns "
        "(criteria 1-4 pipelines, renders included)"
    )
