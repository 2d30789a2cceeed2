"""File access shared across the package: atomic replacement and the JSON reader."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


def read_json(path: str | Path, what: str):
    """The JSON value the file at ``path`` holds; ``what`` names the file in errors.

    Raises:
        ConfigError: the file is not UTF-8 text, or its text is not JSON.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError among others
        raise ConfigError(f"{what} {path}: invalid JSON ({err})") from err


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
