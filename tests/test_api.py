import re
from pathlib import Path

import corrwalk

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_names():
    """Every ``cw.<name>`` in the README's "Library quick start" code block."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    return set(re.findall(r"\bcw\.(\w+)", block))


ERROR_TYPES = {"DegenerateSeriesError", "InsufficientDataError", "InvalidParameterError", "ResourceLimitError"}


def test_readme_quick_start_uses_only_exported_names():
    names = quick_start_names()
    assert "evolve" in names and "size_scan" in names
    assert set(corrwalk.__all__) == names | ERROR_TYPES


def test_every_exported_name_resolves():
    missing = [name for name in corrwalk.__all__ if not hasattr(corrwalk, name)]
    assert not missing
