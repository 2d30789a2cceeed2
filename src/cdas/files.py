"""Atomic file replacement shared by every writer in the package."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path: str | Path):
    """Yield a temp path beside ``path`` that replaces it once the block completes.

    A crash mid-write leaves the previous ``path`` intact instead of truncated.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
