"""The README's "Library in one minute" example prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first ```python block after the "Library in one minute" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library in one minute"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comments():
    source = library_example()
    expected = [line.split("# ", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    assert expected == ["((1,), (0, 2))", "True", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
