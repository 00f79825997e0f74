"""The one crash-safe whole-file write.

Every file a later run resumes from (the CLI's ``--save-state``, the
daemon's snapshot and decision stream, the fleet checkpoint) goes
through :func:`atomic_write_text`: write a sibling ``.tmp``, fsync it,
then rename it over the target.  A process killed at any point
leaves either the previous file or the new one, never a torn mix.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

__all__ = ["atomic_write_text"]


def atomic_write_text(
    path: Union[str, Path], text: Union[str, Iterable[str]]
) -> None:
    """Replace ``path``'s contents with ``text`` (UTF-8), atomically.

    ``text`` is one string or an iterable of string chunks written in
    order; chunks let a large document stream from
    ``json.JSONEncoder.iterencode`` without ever being whole in memory
    (the daemon's per-tick snapshot).  The parent directory must
    exist.  On failure the temp file is removed and the previous
    ``path`` is left untouched.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
