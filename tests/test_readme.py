"""The README's Python API example runs as written."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_api_block_runs(data_dir, tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    shutil.copy(data_dir / "reference_catalog.txt", tmp_path / "catalog.txt")
    shutil.copy(data_dir / "reference_workload_attrs.jsonl", tmp_path / "workload.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert "('q1', 'q7', 'q8')" in capsys.readouterr().out  # explain_pair(bundle, "a1", "a2")
