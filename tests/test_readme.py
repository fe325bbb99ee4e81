"""The Python examples of README.md run as written: every ```python block,
in order, in one namespace, as a reader pasting them into one session would.
The block that loads "votes.jsonl" finds a small annotation file in the
working directory.
"""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

VOTES = [
    {"item_id": "q1", "annotator_id": "a1", "response": "yes"},
    {"item_id": "q1", "annotator_id": "a2", "response": "no"},
    {"item_id": "q1", "annotator_id": "a3", "response": "cs"},
    {"item_id": "q2", "annotator_id": "a1", "response": "yes"},
    {"item_id": "q2", "annotator_id": "a2", "response": "yes"},
]


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_every_python_block_runs_in_order(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 6
    assert any("load_records(\"votes.jsonl\"" in block for block in blocks)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "votes.jsonl").write_text(
        "".join(json.dumps(vote) + "\n" for vote in VOTES), encoding="utf-8"
    )
    namespace = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
