"""Deterministic CSV assembly shared by the result emitters, and the JSON input type rule.

Layout: '# key=value' metadata lines (a value holding a line break is a
ValueError), a '# digest=sha256:...' line over the data section, one
'# generated=...' timestamp line (the only non-reproducible byte in the
file), then the column header and rows.
Rows are tuples, written by one '%' template per table that is typed by the first
row: 17 significant digits for a float, str otherwise.  UTF-8, LF newlines.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import sys

# The line boundaries of str.splitlines: a header value holding any of them would split its line.
LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def format_value(v) -> str:
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_csv(columns, rows, metadata=None) -> str:
    header_lines = [f"# {key}={format_value(value)}" for key, value in (metadata or {}).items()]
    for line in header_lines:
        if not LINE_BREAKS.isdisjoint(line):  # it would forge header or data lines
            raise ValueError(f"a CSV header value cannot hold a line break: {line[2:]!r}")
    rows = iter(rows)
    first = next(rows, None)
    lines = [",".join(columns) + "\n"]
    if first is not None:
        template = ",".join("%.17g" if isinstance(v, float) else "%s" for v in first) + "\n"
        lines.append(template % first)
        lines += map(template.__mod__, rows)
    data_section = "".join(lines)
    digest = hashlib.sha256(data_section.encode("utf-8")).hexdigest()
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    header_lines += [f"# digest=sha256:{digest}", f"# generated={now}"]
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
