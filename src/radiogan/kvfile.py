"""Tiny ``key=value`` text-file reader/writer.

This one format backs the recording sidecars, run metadata, config files,
manifests, and validation reports: UTF-8 text, one ``key=value`` pair per
line, ``#`` comment lines and blank lines ignored, keys and values stripped
of surrounding whitespace. The reader refuses a repeated key; the writer
refuses any pair the reader would not return unchanged.
"""

from __future__ import annotations

from pathlib import Path


def format_kv(mapping: dict) -> str:
    """One ``key=value`` line per pair, keys and values written with ``str``.

    Raises ``ValueError`` for a pair that ``parse_kv`` would not read back
    unchanged: a line break anywhere, whitespace around the key or the value,
    an ``=`` in the key, a key that starts with ``#``, or a key whose ``str``
    repeats an earlier one's.
    """
    lines = {}
    for key, value in mapping.items():
        key, value = str(key), str(value)
        line = f"{key}={value}\n"
        try:
            back = parse_kv(line)
        except ValueError:
            back = None
        if back != {key: value} or key in lines:
            raise ValueError(f"{key!r}={value!r} would not read back unchanged as a key=value line")
        lines[key] = line
    return "".join(lines.values())


def parse_kv(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def write_kv(path: str | Path, mapping: dict) -> None:
    Path(path).write_text(format_kv(mapping), encoding="utf-8")


def read_kv(path: str | Path) -> dict[str, str]:
    return parse_kv(Path(path).read_text(encoding="utf-8"))
