"""The README's library tour runs as written."""

from pathlib import Path

from ews32 import Subregion

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n")[1]
    code = section.split("\n## ")[0].split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["region"] is Subregion.P2
