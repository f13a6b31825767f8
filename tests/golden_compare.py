"""Compare the golden fixtures with their versions at an earlier git revision.

Removing a :class:`~repro.simulation.runner.CellSpec` field changes every
fixture's ``spec`` (the field and the ``cell_id`` fingerprint) but must leave
every ``result`` payload byte-identical.  This script checks exactly that::

    python tests/golden_compare.py <revision>

It prints, per fixture, the spec keys that were added, removed or changed,
and exits non-zero when any ``result`` payload differs from the one at
``<revision>`` (compared as the indented JSON the fixtures are written in).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"


def _at_revision(revision: str, path: Path) -> dict:
    relative = path.relative_to(Path(__file__).parent.parent).as_posix()
    text = subprocess.run(
        ["git", "show", f"{revision}:{relative}"],
        check=True,
        capture_output=True,
        text=True,
        cwd=path.parent,
    ).stdout
    return json.loads(text)


def compare(revision: str) -> bool:
    """Report spec changes per fixture; ``True`` when every result matches."""
    identical = True
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        old = _at_revision(revision, path)
        new = json.loads(path.read_text())
        spec_changes = sorted(
            key
            for key in old["spec"].keys() | new["spec"].keys()
            if old["spec"].get(key, "<absent>") != new["spec"].get(key, "<absent>")
        )
        same = json.dumps(old["result"], indent=1) == json.dumps(
            new["result"], indent=1
        )
        identical = identical and same
        verdict = "result identical" if same else "RESULT DIFFERS"
        print(f"{path.name}: {verdict}; spec keys changed: {spec_changes}")
    return identical


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/golden_compare.py <revision>")
    raise SystemExit(0 if compare(sys.argv[1]) else 1)
