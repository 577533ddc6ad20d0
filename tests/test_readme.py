"""The README's library tour runs as written against the current API, and
its config reference lists exactly the keys the parser accepts."""

import math
import re
from pathlib import Path

from agecourier.config import _KNOWN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "README library tour has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert math.isfinite(namespace["res"].network_aoi)


def test_readme_config_reference_lists_every_known_key():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("### Config reference") : text.index("### Output formats")]
    listed = set()
    for row in re.findall(r"^\| (\w+) \| (.+?) \|", table, re.MULTILINE):
        section, keys = row
        listed.update((section, key) for key in re.findall(r"`(\w+)`", keys))
    known = {(section, key) for section, keys in _KNOWN_KEYS.items() for key in keys}
    assert listed == known
