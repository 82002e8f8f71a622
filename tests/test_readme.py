"""The README's CLI walkthrough, run as written: its heredoc and each of its commands."""

import json
import re
import shlex
from pathlib import Path

from vpskit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough() -> tuple[dict[str, str], list[list[str]]]:
    """The walkthrough's heredoc files and its ``vpskit`` commands, without the program name."""
    text = README.read_text("utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    files = dict(re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M))
    joined = block.replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("vpskit ")]
    return files, commands


def test_walkthrough_runs_and_scores_a_vpq_mean_of_one(tmp_path, monkeypatch, capsys):
    files, commands = walkthrough()
    assert list(files) == ["scene.json"]
    assert [argv[0] for argv in commands] == ["synth", "warpmatch", "eval", "fillfuse", "render"]
    monkeypatch.chdir(tmp_path)
    for name, body in files.items():
        Path(name).write_text(body)
    summaries = {}
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0 and not err, (argv, err)
        summaries[argv[0]] = json.loads(out)
    assert summaries["eval"]["vpq"]["mean"] == 1.0
    assert json.loads(Path("report.json").read_text()) == summaries["eval"]
