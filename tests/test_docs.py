"""What the README and the docs show a reader holds for the code.

* The README's Quickstart block runs and prints what its comments say.
* Every symbol docs/API.md marks ★ ("re-exported from the top-level
  ``repro`` package") resolves on ``repro``.
* docs/FAULTS.md's event catalog lists exactly the event classes the
  schedule codec knows.
"""

import contextlib
import io
import re
from pathlib import Path

import repro
from repro.faults import EVENT_KINDS

ROOT = Path(__file__).resolve().parent.parent


def _quickstart_source() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quickstart_prints_its_comments():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(_quickstart_source(), "README.md", "exec"), {})
    compatible, rotations, fair, unfair = printed.getvalue().splitlines()
    assert compatible == "True"
    assert rotations == "{'dlrm-1': 0, 'dlrm-2': 300}"
    assert round(float(fair), 3) == 1.301
    assert round(float(unfair), 3) == 1.001


def _starred_names():
    text = (ROOT / "docs" / "API.md").read_text()
    before = re.findall(r"★ `([A-Za-z_]\w*)", text)
    after = re.findall(r"`([A-Za-z_]\w*)[^`]*` ★", text)
    return sorted(set(before + after))


def test_every_starred_api_symbol_resolves_on_repro():
    names = _starred_names()
    assert len(names) > 40, names
    missing = [name for name in names if not hasattr(repro, name)]
    assert missing == [], "docs/API.md stars names repro does not export"


def test_fault_catalog_names_exactly_the_codec_event_kinds():
    text = (ROOT / "docs" / "FAULTS.md").read_text()
    catalog = text.split("\n## Event catalog\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)\(", catalog, flags=re.MULTILINE)
    assert sorted(listed) == sorted(
        cls.__name__ for cls in EVENT_KINDS.values()
    )
