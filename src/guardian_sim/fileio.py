"""Output helpers: fixed-precision formatting and atomic file writes."""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO


def fmt9(value: float) -> str:
    """Fixed 9-significant-digit rendering, for reproducible diffs."""
    return f"{value:.9g}"


def round9(value: float) -> float:
    """Round to 9 significant digits (for JSON payloads)."""
    return float(fmt9(value))


def json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


@contextmanager
def open_atomic(path: Path) -> Iterator[TextIO]:
    """A text file that appears at `path` whole or not at all.

    Yields a sibling temp file, and renames it to `path` when the block ends
    normally; if the block raises, the temp file is removed, so a failure
    never leaves a partial file at the destination.  The parent directory is
    created if missing, and the file gets the mode `open(path, "w")` would
    give it: the temp file is created 0o666 and the umask applies."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_text_atomic(path: Path, text: str) -> None:
    """Write `text` to `path` through `open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(text)
