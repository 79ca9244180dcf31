"""The README's library tour runs as written, so it cannot teach an entry
point that is gone or fall out of date."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_tour_runs() -> None:
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S)
    assert tour is not None, "README.md has no python block"
    exec(compile(tour.group(1), "README.md tour", "exec"), {"__name__": "readme_tour"})
