"""The README's library quickstart runs as written and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
QUICKSTART_LINE = "[4936, 4937, 4938, 4939, 4940] 34.0 725173 1063"


def test_quickstart_prints_documented_line():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == QUICKSTART_LINE + "\n"
    assert f"\n{QUICKSTART_LINE}\n" in text
