"""The README quickstart must print exactly the output block shown below it."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_prints_its_documented_output():
    quickstart = README.read_text(encoding="utf-8").split("## Quickstart", 1)[1]
    match = re.search(r"```python\n(.*?)```\s*```\n(.*?)```", quickstart, re.DOTALL)
    assert match, "README quickstart needs a python block followed by its output block"
    code, expected = match.groups()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "__readme__"})
    assert out.getvalue().splitlines() == expected.splitlines()
