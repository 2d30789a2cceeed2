"""File access shared across the package: atomic replacement, the JSON reader, the
check that a payload holds its keys, and the base64 text a checkpoint stores arrays as."""

from __future__ import annotations

import base64
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

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


def require(value, fields, what: str) -> None:
    """Refuse, with a ConfigError naming ``what``, a ``value`` that is not a dict of ``fields``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what}: expected a JSON object")
    missing = [name for name in fields if name not in value]
    if missing:
        raise ConfigError(f"{what}: missing field {missing[0]!r}")


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


def encode_array(values: np.ndarray, dtype: str) -> str:
    """The base64 text of ``values`` as the bytes of ``dtype``, such as ``"<f8"``."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def decode_array(text, dtype: str, length: int, what: str) -> np.ndarray:
    """The ``length`` values of ``dtype`` that ``encode_array`` wrote as ``text``.

    The array is a writable copy in native byte order.

    Raises:
        ConfigError: ``text`` is not a str, not base64, or not ``length``
            values long; ``what`` names it.
    """
    if not isinstance(text, str):
        raise ConfigError(f"{what}: must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as err:  # binascii.Error, or a character beyond ASCII
        raise ConfigError(f"{what}: invalid base64 ({err})") from err
    kind = np.dtype(dtype)
    if len(raw) != length * kind.itemsize:
        raise ConfigError(
            f"{what}: {len(raw)} bytes where {length} values of {kind.itemsize} bytes belong"
        )
    return np.frombuffer(raw, dtype=kind).astype(kind.newbyteorder("="))
