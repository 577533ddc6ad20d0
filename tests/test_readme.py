"""The README's library tour runs as written against the current API."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "README library tour has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert math.isfinite(namespace["res"].network_aoi)
