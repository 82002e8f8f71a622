"""Pinned output bytes of `vpskit synth`.

Criterion 9 compares two reruns of the same code, so it cannot see a
rewrite that changes what synth writes. These tests hash every file synth
writes for one small fixed scene, with every corruption on, and compare
the digests with ones recorded from an earlier implementation. The scene
has rectangles and disks (sizes 2 and 3 among them), overlaps, a depth
tie, fractional positions and velocities, and actors that leave the frame.
"""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import small_taxonomy
from vpskit.cli import main
from vpskit.synth import Actor, Band, SceneConfig

SCENE = SceneConfig(
    width=40,
    height=24,
    frames=4,
    taxonomy=small_taxonomy(),
    background=(Band(2, 7), Band(0, 3), Band(1)),
    actors=(
        Actor("rectangle", 10, 9, (3.0, 4.5), (2.5, 0.0), 0),
        Actor("disk", 11, 11, (8.25, 6.0), (1.0, 0.75), 1),
        Actor("disk", 10, 2, (20.0, 3.0), (-0.5, 1.0), 1),
        Actor("disk", 11, 3, (24.6, 14.2), (0.0, -1.5), 2),
        Actor("rectangle", 11, 6, (30.0, 15.0), (4.0, 1.0), 1),
        Actor("rectangle", 10, 14, (-6.0, 12.0), (3.0, -0.25), 0),
        Actor("disk", 10, 8, (14.0, 10.0), (0.0, 0.0), 2),
    ),
    seed=5,
)

FLAGS = ["--shuffle-ids", "--box-jitter", "2", "--box-drop", "0.1", "--corrupt-seed", "9"]

# sha256 of every file synth writes, keyed by its path below --out.
DIGESTS = {
    1: {
        "corrupt/classes_0000.lmap": "3b47831f56bdd2a845b9d0d1c057d2df44c15f3c74bb0e24cefb2fd227a636e9",
        "corrupt/classes_0001.lmap": "44a335b761051a93c3649ceac87c5d6095c431cc72fa00f642e91de2af03ab73",
        "corrupt/classes_0002.lmap": "ed726b7ded9acd358972b0c0b61423e8c829e251dc01d59a9dc99554eacfde07",
        "corrupt/classes_0003.lmap": "63fec4b32ebc2dd8ca36cb668b1075432c7ed8c7053087e0f6e7abbb5022a25a",
        "corrupt/flow_0000.flo": "cff450aa066e70727a4098cbb16fa9b4e635b3297c8c10ccec84913b34d53af0",
        "corrupt/flow_0001.flo": "e73e9cbc14dd0db8b0daade402b9b507b839f6065926b8427b8d489f3f0db5d8",
        "corrupt/flow_0002.flo": "754778f414087bc70732e6e26f5b116bba3a0a0ccdd753920f9d1cd29c55102c",
        "corrupt/instances_0000.lmap": "872449706d85908bc7a2321df11a6e3680df71e74b4dec7f39aeef099117ddf4",
        "corrupt/instances_0001.lmap": "84f235935a6c88f9942cce1016dc66d9d1940bc8a0be6d8d917c15acfb70d15e",
        "corrupt/instances_0002.lmap": "e4c05386ed3c32682b1e4a8e0c604d48b73932b25428046509452e23ef4ad8ff",
        "corrupt/instances_0003.lmap": "fbae189a821256250e57d6fb2c3ef00d2cd8419b31858b963c34bd50c2e8a72c",
        "corrupt/manifest.json": "75dd592123d4afeb2a8c2cbf7cd45c3cbb9a0cfa79fd38315ec5f4117fe3fc63",
        "gt/classes_0000.lmap": "c8932c4be52c318883190aa73e0ce1b3772ce70d63b4384f91f3d63fb9b83ea1",
        "gt/classes_0001.lmap": "eb117bc792343d96e807b94d4ea4128eb5ebb8f77e9e4eb8b9de2627f57a7acc",
        "gt/classes_0002.lmap": "4a1071680a74ebbfa550988a9bf1016090e5ea7b29c3965361ebeb14c16acb0f",
        "gt/classes_0003.lmap": "d99ae402d98a6289912b4c87ace4d2eb3b2d860d9a323d442d29002d55360551",
        "gt/flow_0000.flo": "cff450aa066e70727a4098cbb16fa9b4e635b3297c8c10ccec84913b34d53af0",
        "gt/flow_0001.flo": "e73e9cbc14dd0db8b0daade402b9b507b839f6065926b8427b8d489f3f0db5d8",
        "gt/flow_0002.flo": "754778f414087bc70732e6e26f5b116bba3a0a0ccdd753920f9d1cd29c55102c",
        "gt/instances_0000.lmap": "3298463fab7b634ee86588cd814c01d62f7af2a7f54241829201a0b2aeb65bd1",
        "gt/instances_0001.lmap": "91d48291f196b85487646b802dee2cfed51bdb4b29aecdc0938a4220aba51c1d",
        "gt/instances_0002.lmap": "3e056922d4a1e0669e3c6c2182239c81d8ec94bbed3843eec6bb6f28b3d47065",
        "gt/instances_0003.lmap": "7ba23ee4e9642c86dff5a8274f4c8c111be649af417967f5ec9842ed29eecaac",
        "gt/manifest.json": "75dd592123d4afeb2a8c2cbf7cd45c3cbb9a0cfa79fd38315ec5f4117fe3fc63",
        "semantic/classes_0000.lmap": "c8932c4be52c318883190aa73e0ce1b3772ce70d63b4384f91f3d63fb9b83ea1",
        "semantic/classes_0001.lmap": "eb117bc792343d96e807b94d4ea4128eb5ebb8f77e9e4eb8b9de2627f57a7acc",
        "semantic/classes_0002.lmap": "4a1071680a74ebbfa550988a9bf1016090e5ea7b29c3965361ebeb14c16acb0f",
        "semantic/classes_0003.lmap": "d99ae402d98a6289912b4c87ace4d2eb3b2d860d9a323d442d29002d55360551",
        "semantic/manifest.json": "6d0462a95401a30adb773eb5c3992ed0e7dee267e95426f60a0ab318d3707b1f",
        "taxonomy.json": "d2f1f42905c06a5bfbbd38ac36441a285102e5065dad3342f3477a2e0bfa1ca0",
        "tracks.jsonl": "54ab19ca18bfccab3b14ba5da888b373e272602039fb7e150adafa7b38263775",
        "tracks_corrupt.jsonl": "d492ab38a0931446719968d8beaa76d70f2ac4ada3554e51499349980705c1bb",
    },
    3: {
        "corrupt/classes_0000.lmap": "976d43e92bbf4a4b2db3551f32becf5461e8b83600fc7913a2b34b56504a6f4e",
        "corrupt/classes_0001.lmap": "9b45dd4f182640fdc868f3a2ffbde0753c042b05bd4b54cdf3ca83b90220dd1e",
        "corrupt/classes_0002.lmap": "80a341da985b4249db2396bd9629b728b7192ff66391009a8ed7ab78427723b3",
        "corrupt/classes_0003.lmap": "01d9954313bdd0e19e76acdd3c524e3360acc226144b10d88084239077390edf",
        "corrupt/flow_0000.flo": "cff450aa066e70727a4098cbb16fa9b4e635b3297c8c10ccec84913b34d53af0",
        "corrupt/flow_0001.flo": "e73e9cbc14dd0db8b0daade402b9b507b839f6065926b8427b8d489f3f0db5d8",
        "corrupt/flow_0002.flo": "754778f414087bc70732e6e26f5b116bba3a0a0ccdd753920f9d1cd29c55102c",
        "corrupt/instances_0000.lmap": "8731189c17d2b8614bd39503ccde2a8cafd4e6372bfa80c3189344eb06c0a566",
        "corrupt/instances_0001.lmap": "d4b8820a964091a3660bc714f7c70a88e6e8dfe8b7630028f8c277be5dd51821",
        "corrupt/instances_0002.lmap": "da20b5384fd3adbff3cd121a3f2561287dbc860ed1be8697a61546f7c215fbdd",
        "corrupt/instances_0003.lmap": "baef8e30d00977a8e2d109be2923ad43ff42756e0edf6286c59db25b96c0a2fa",
        "corrupt/manifest.json": "75dd592123d4afeb2a8c2cbf7cd45c3cbb9a0cfa79fd38315ec5f4117fe3fc63",
        "gt/classes_0000.lmap": "c8932c4be52c318883190aa73e0ce1b3772ce70d63b4384f91f3d63fb9b83ea1",
        "gt/classes_0001.lmap": "eb117bc792343d96e807b94d4ea4128eb5ebb8f77e9e4eb8b9de2627f57a7acc",
        "gt/classes_0002.lmap": "4a1071680a74ebbfa550988a9bf1016090e5ea7b29c3965361ebeb14c16acb0f",
        "gt/classes_0003.lmap": "d99ae402d98a6289912b4c87ace4d2eb3b2d860d9a323d442d29002d55360551",
        "gt/flow_0000.flo": "cff450aa066e70727a4098cbb16fa9b4e635b3297c8c10ccec84913b34d53af0",
        "gt/flow_0001.flo": "e73e9cbc14dd0db8b0daade402b9b507b839f6065926b8427b8d489f3f0db5d8",
        "gt/flow_0002.flo": "754778f414087bc70732e6e26f5b116bba3a0a0ccdd753920f9d1cd29c55102c",
        "gt/instances_0000.lmap": "3298463fab7b634ee86588cd814c01d62f7af2a7f54241829201a0b2aeb65bd1",
        "gt/instances_0001.lmap": "91d48291f196b85487646b802dee2cfed51bdb4b29aecdc0938a4220aba51c1d",
        "gt/instances_0002.lmap": "3e056922d4a1e0669e3c6c2182239c81d8ec94bbed3843eec6bb6f28b3d47065",
        "gt/instances_0003.lmap": "7ba23ee4e9642c86dff5a8274f4c8c111be649af417967f5ec9842ed29eecaac",
        "gt/manifest.json": "75dd592123d4afeb2a8c2cbf7cd45c3cbb9a0cfa79fd38315ec5f4117fe3fc63",
        "semantic/classes_0000.lmap": "c8932c4be52c318883190aa73e0ce1b3772ce70d63b4384f91f3d63fb9b83ea1",
        "semantic/classes_0001.lmap": "eb117bc792343d96e807b94d4ea4128eb5ebb8f77e9e4eb8b9de2627f57a7acc",
        "semantic/classes_0002.lmap": "4a1071680a74ebbfa550988a9bf1016090e5ea7b29c3965361ebeb14c16acb0f",
        "semantic/classes_0003.lmap": "d99ae402d98a6289912b4c87ace4d2eb3b2d860d9a323d442d29002d55360551",
        "semantic/manifest.json": "6d0462a95401a30adb773eb5c3992ed0e7dee267e95426f60a0ab318d3707b1f",
        "taxonomy.json": "d2f1f42905c06a5bfbbd38ac36441a285102e5065dad3342f3477a2e0bfa1ca0",
        "tracks.jsonl": "54ab19ca18bfccab3b14ba5da888b373e272602039fb7e150adafa7b38263775",
        "tracks_corrupt.jsonl": "d492ab38a0931446719968d8beaa76d70f2ac4ada3554e51499349980705c1bb",
    },
}


def synth_digests(tmp_path: Path, erode: int) -> dict[str, str]:
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(SCENE.to_dict()))
    out = tmp_path / "out"
    argv = ["synth", "--config", str(config), "--out", str(out), "--erode", str(erode), *FLAGS]
    assert main(argv) == 0
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("erode", sorted(DIGESTS))
def test_synth_writes_the_pinned_bytes(tmp_path, capsys, erode):
    got = synth_digests(tmp_path, erode)
    capsys.readouterr()
    assert got == DIGESTS[erode]
