"""Structured command reports with a stable machine mode.

A report is an ordered list of (key, value) string pairs.  Machine mode
renders one ``key = value`` line per field, starting with the schema tag;
the golden tests compare that rendered text byte for byte with recorded
reports.
"""

from __future__ import annotations

SCHEMA = "rht.report.v1"


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class Report:
    def __init__(self, command: str):
        self.fields = [("schema", SCHEMA), ("command", command)]

    def add(self, key: str, value) -> "Report":
        if "=" in key or "\n" in key or key != key.strip():
            raise ValueError(f"bad report key {key!r}")
        text = render_value(value)
        if "\n" in text:
            raise ValueError("report values must be single lines")
        self.fields.append((key, text))
        return self

    def render_machine(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.fields)

    def render_human(self) -> str:
        _schema, (_key, command), *added = self.fields
        width = max(len(k) for k, _v in self.fields)
        body = [f"[{command}]"] + [f"  {k.ljust(width)}  {v}" for k, v in added]
        return "\n".join(body) + "\n"
