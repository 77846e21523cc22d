"""Regenerate ``recipe_expected.json``, the values ``tests/test_recipe.py``
checks the fixture recipe against.

Run from the repository root with ``PYTHONPATH=src python
tests/fixtures/make_recipe_expected.py``. Only a change meant to move the
recipe's values regenerates the file, and CHANGES.md says which moved.
"""

import json
from pathlib import Path
import sys
import tempfile

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_recipe import EXPECTED, run_recipe  # noqa: E402


def _dump(summaries: dict) -> str:
    """The summaries as JSON with one line per value, so that a diff of
    the file shows which values moved."""
    shapes = []
    for shape, parts in summaries.items():
        sections = []
        for part, values in parts.items():
            body = ",\n".join(
                f"   {json.dumps(key)}: {json.dumps(value)}"
                for key, value in values.items()
            )
            sections.append(f"  {json.dumps(part)}: {{\n{body}\n  }}")
        shapes.append(f" {json.dumps(shape)}: {{\n" + ",\n".join(sections) + "\n }")
    return "{\n" + ",\n".join(shapes) + "\n}\n"


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        summaries = run_recipe(Path(out))
    EXPECTED.write_text(_dump(summaries), encoding="utf-8")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":
    main()
