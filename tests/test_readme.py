"""The README's library quickstart runs as written and prints what it shows,
and its CLI example is an invocation the CLI parses."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from swmax.bench import parse_cli
from swmax.ingest import gen_set_stream

from reference import write_set_stream

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


def test_cli_example_parses(tmp_path):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(swmax-bench .*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    argv = shlex.split(blocks[0].replace("\\\n", " "))[1:]  # join the continued lines
    stream = tmp_path / "sets.txt"
    write_set_stream(gen_set_stream(30, 20, 5, seed=0), stream)
    argv[argv.index("--input") + 1] = str(stream)
    config = parse_cli(argv)
    assert (config.input, config.format) == (str(stream), "sets")
