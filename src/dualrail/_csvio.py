"""Deterministic CSV assembly shared by the result emitters.

Layout: '# key=value' metadata lines, a '# digest=sha256:...' line over the
data section, one '# generated=...' timestamp line (the only
non-reproducible byte in the file), then the column header and rows.
Floats are written with 17 significant digits, UTF-8, LF newlines.
"""

from __future__ import annotations

import datetime
import hashlib
import io


def format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


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
