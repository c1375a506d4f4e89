"""Plain-text tables for the experiment harness.

Each experiment returns a :class:`Table`; ``repro experiment`` prints it,
and ``scripts/generate_experiments_md.py`` writes the same rendering into
EXPERIMENTS.md, so the recorded numbers are exactly what the harness
produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["Table"]


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


@dataclass
class Table:
    """A titled table with named columns."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} entries, table has {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> list[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Render as a GitHub-flavoured markdown table with the title as a header."""
        cells = [[_fmt(x) for x in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells)) if cells else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        header = "| " + " | ".join(c.ljust(w) for c, w in zip(self.columns, widths)) + " |"
        sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
        body = [
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |" for row in cells
        ]
        lines = [f"### {self.title}", "", header, sep, *body]
        if self.notes:
            lines.append("")
            lines.extend(f"- {note}" for note in self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
