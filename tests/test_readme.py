"""The README's "Library quick start" block, extracted from README.md and
run as written: it composes the Stirling spans, checks the signed product
of their character images with is_identity and compares span matrices
with ==."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The first python block after the "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under Library quick start"
    return block.group(1)


def test_library_quick_start_runs():
    code = quick_start()
    assert ".is_identity()" in code and "span_matrix(again) ==" in code
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
