"""Output helpers: fixed-precision formatting and atomic file writes."""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def fmt9(value: float) -> str:
    """Fixed 9-significant-digit rendering, for reproducible diffs."""
    return f"{value:.9g}"


def round9(value: float) -> float:
    """Round to 9 significant digits (for JSON payloads)."""
    return float(fmt9(value))


def json_text(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def write_text_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename, so failures never leave a
    partial file at the destination.  The file gets the mode `open(path, "w")`
    would give it: the temp file is created 0o666 and the umask applies."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_name = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
