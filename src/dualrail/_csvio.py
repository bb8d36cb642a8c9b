"""Deterministic CSV assembly shared by the result emitters, and the JSON input type rule.

Layout: '# key=value' metadata lines, a '# digest=sha256:...' line over the
data section, one '# generated=...' timestamp line (the only
non-reproducible byte in the file), then the column header and rows.
Floats are written with 17 significant digits, UTF-8, LF newlines.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import sys


def format_value(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_csv(columns, rows, metadata=None) -> str:
    data_lines = [",".join(columns)]
    for row in rows:
        data_lines.append(",".join(format_value(v) for v in row))
    data_section = "\n".join(data_lines) + "\n"
    digest = hashlib.sha256(data_section.encode("utf-8")).hexdigest()

    header_lines = []
    for key, value in (metadata or {}).items():
        header_lines.append(f"# {key}={format_value(value)}")
    header_lines.append(f"# digest=sha256:{digest}")
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    header_lines.append(f"# generated={now}")
    return "\n".join(header_lines) + "\n" + data_section


def write_text(path, text: str) -> None:
    with io.open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def typed(value, kind: type, name: str):
    """``value`` if its JSON type is ``kind``; a JSON integer also passes as a float.

    The one type rule of every JSON input: config keys and schedule intervals.
    """
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not kind:  # rejects a bool where an int is expected
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value
