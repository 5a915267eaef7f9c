"""Tabular output documents with csv/json/markdown renderers.

Rendering applies the requested decimal precision to float cells, in
exponent form from magnitude 1e16 on in csv and markdown; the document
itself always stores full-precision values.  Cells may be numbers,
strings (e.g. the out-of-domain marker) or None.
"""

from __future__ import annotations

import io

from .errors import DomainError, check_int

__all__ = ["OutputDocument", "INFEASIBLE_MARKER", "FORMATS"]

#: string placed in grid cells whose evaluation was out of domain
INFEASIBLE_MARKER = "infeasible"

FORMATS = ("csv", "json", "markdown")

Cell = float | int | str | None


class OutputDocument:
    """A titled table: column headers, rows, free-form notes."""

    def __init__(self, title: str, columns: list[str], rows: list[list[Cell]],
                 notes: list[str] | None = None):
        width = len(columns)
        if width == 0:
            raise DomainError("a document needs at least one column")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise DomainError(
                    f"row {i} has {len(row)} cells, expected {width}"
                )
        self.title = title
        self.columns = columns
        self.rows = rows
        self.notes = [] if notes is None else notes

    def has_marker(self) -> bool:
        """Whether any cell holds :data:`INFEASIBLE_MARKER`."""
        return any(cell == INFEASIBLE_MARKER for row in self.rows for cell in row)

    def render(self, fmt: str, precision: int = 3) -> str:
        if fmt not in FORMATS:
            raise DomainError(f"format must be one of {FORMATS}, got {fmt!r}")
        check_int(precision, "precision", at_least=0, at_most=17)
        if fmt == "csv":
            return self._to_csv(precision)
        if fmt == "json":
            return self._to_json(precision)
        return self._to_markdown(precision)

    # text formats format cells as strings; json keeps numbers numeric

    def _cell_text(self, cell: Cell, precision: int) -> str:
        if cell is None:
            return ""
        if isinstance(cell, float):
            if abs(cell) >= 1e16:  # fixed point would print every digit
                return f"{cell:.{precision}e}"
            return f"{cell:.{precision}f}"
        return str(cell)

    def _to_csv(self, precision: int) -> str:
        import csv  # only csv renders pay for loading it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(self._cell_text(c, precision) for c in row)
        return buf.getvalue()

    def _to_json(self, precision: int) -> str:
        import json  # only json renders pay for loading it

        # key order (title, columns, rows, notes) is part of the contract
        def cell_value(cell: Cell):
            if isinstance(cell, float):
                return round(cell, precision)
            return cell

        payload = {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [[cell_value(c) for c in row] for row in self.rows],
            "notes": list(self.notes),
        }
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    def _to_markdown(self, precision: int) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("| " + " | ".join("---" for _ in self.columns) + " |")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._cell_text(c, precision) for c in row) + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"_{note}_")
        return "\n".join(lines) + "\n"
