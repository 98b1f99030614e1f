"""The README's library example runs as written and prints the ring's
resonance, so the example cannot drift from the library."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python code block under the "Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs_and_finds_the_ring():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    megahertz = float(lines[0].split()[0])
    # the 29 MHz ring, within one 60 kHz grid step
    assert abs(megahertz - 29.0) <= 0.06
