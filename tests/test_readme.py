"""README's examples run as written against the library."""
from __future__ import annotations

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    # The first fenced ``language`` block under the ``## section`` heading.
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs_on_the_cli_config(tmp_path, monkeypatch, capsys):
    doc = json.loads(_block("CLI", "json"))
    doc["search"]["total_meta_steps"] = 3
    (tmp_path / "config.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(_block("Library use", "python"), "README.md", "exec"), scope)
    assert len(scope["result"].reward_history) == 3 * doc["search"]["pairs_per_step"]
    assert 0.0 <= scope["metrics"].test_accuracy <= 1.0
    assert str(scope["metrics"].test_accuracy) in capsys.readouterr().out
    assert (tmp_path / "run" / "search.ckpt").exists()  # the config's output paths, under tmp_path
