"""Where the benchmark finds the program it measures and where it may write.

The benchmark runs from the root of a source checkout and imports the
package straight from ``src/``; it never falls back to an installed copy.
Everything it writes goes under ``.perfbench_out/`` in the same checkout.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def add_program_to_path() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit with an error
    (code 1, message on stderr) when the sources are not there."""
    if not (SRC / "guardian_sim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no guardian_sim sources under {SRC}")
    sys.path.insert(0, str(SRC))
