"""The python examples of README.md run, and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_examples_print_what_their_comments_say():
    assert BLOCKS
    for block in BLOCKS:
        # each print is one line, and its comment begins with what it prints
        comments = [line.split("  # ", 1)[1] for line in block.splitlines()
                    if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        assert len(printed) == len(comments)
        for line, comment in zip(printed, comments):
            assert comment.startswith(line), (line, comment)
