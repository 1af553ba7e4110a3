"""The README's library tour runs as written."""

from pathlib import Path

from ews32 import Subregion

README = Path(__file__).resolve().parent.parent / "README.md"


def run_library_tour():
    """Run the README's library tour against whichever ews32 imports
    first on sys.path, and check the subregion it finds."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n")[1]
    code = section.split("\n## ")[0].split("```python\n")[1].split("```")[0]
    namespace = {}
    exec(compile(code, "README.md (Library tour)", "exec"), namespace)
    assert namespace["region"] is Subregion.P2


def test_library_tour_runs():
    run_library_tour()
