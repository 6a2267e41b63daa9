"""Convergence reports: rate computation and CSV / Markdown / SVG output.

The CSV layout is bit-specified for determinism: a header row, integer
DOF counts, every other numeric cell formatted ``%.6e``, and ``--`` for
the undefined rates of the first row.  The SVG writer is a minimal
hand-rolled log-log plot (polylines plus reference slopes), so reports
carry no plotting-library dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "LevelRow",
    "ConvergenceReport",
    "rates_from_errors",
    "render_csv",
    "render_markdown",
    "render_svg",
]


def rates_from_errors(errors: Sequence[float], hs: Sequence[float]):
    """Experimental rates log(e/e')/log(h/h').

    The first level has no predecessor and vanishing errors admit no
    rate; both yield None entries.
    """
    out = [None]
    for i in range(1, len(errors)):
        if errors[i - 1] <= 0.0 or errors[i] <= 0.0:
            out.append(None)
            continue
        out.append(math.log(errors[i - 1] / errors[i])
                   / math.log(hs[i - 1] / hs[i]))
    return out


@dataclass(frozen=True)
class LevelRow:
    """One mesh level: dof count, mesh size, and per-field error dict.

    ``errors[field]`` maps norm tags ("e0", optionally "e1") to values.
    """

    dofs: int
    h: float
    errors: dict


@dataclass
class ConvergenceReport:
    """Rows plus derived rate columns in a fixed field order."""

    fields: tuple
    rows: list
    problem: str = ""
    config_hash: str = ""
    rates: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = [row.h for row in self.rows]
        for name in self.fields:
            for norm in self.norms(name):
                errs = [row.errors[name][norm] for row in self.rows]
                self.rates[(name, norm)] = rates_from_errors(errs, hs)

    def norms(self, name: str):
        if not self.rows:
            return ()
        return tuple(sorted(self.rows[0].errors[name]))

    def columns(self):
        """Flat column description: (header, kind, field, norm)."""
        cols = [("DOF", "dof", None, None), ("h", "h", None, None)]
        for name in self.fields:
            for norm in self.norms(name):
                digit = norm[-1]
                cols.append((f"e{digit}_{name}", "err", name, norm))
                cols.append((f"r{digit}_{name}", "rate", name, norm))
        return cols

    def rate_list(self, name: str, norm: str = "e0"):
        """Defined consecutive rates for one field/norm."""
        return [r for r in self.rates[(name, norm)] if r is not None]


def _table(report: ConvergenceReport, formats: dict) -> list:
    """The header and one row of cells per level, walking
    ``report.columns()`` with one format per column kind; an undefined
    rate is ``--``."""
    cols = report.columns()
    table = [[c[0] for c in cols]]
    for i, row in enumerate(report.rows):
        cells = []
        for _, kind, name, norm in cols:
            value = (row.dofs if kind == "dof" else row.h if kind == "h"
                     else row.errors[name][norm] if kind == "err"
                     else report.rates[(name, norm)][i])
            cells.append("--" if value is None else formats[kind] % value)
        table.append(cells)
    return table


def render_csv(report: ConvergenceReport) -> str:
    table = _table(report, {"dof": "%d", "h": "%.6e", "err": "%.6e",
                            "rate": "%.6e"})
    return "".join(",".join(cells) + "\n" for cells in table)


def render_markdown(report: ConvergenceReport) -> str:
    head, *rows = _table(report, {"dof": "%d", "h": "%.4g", "err": "%.4e",
                                  "rate": "%.2f"})
    lines = ["| " + " | ".join(cells) + " |" for cells in [head] + rows]
    lines.insert(1, "|" + "|".join(["---"] * len(head)) + "|")
    if report.problem:
        lines.append("")
        lines.append(f"Problem: {report.problem}; config {report.config_hash}")
    return "\n".join(lines) + "\n"


def _svg_path(points):
    return " ".join(f"{'M' if i == 0 else 'L'}{x:.2f},{y:.2f}"
                    for i, (x, y) in enumerate(points))


def render_svg(report: ConvergenceReport) -> str:
    """Log-log error-versus-h plot with slope 1 and 2 reference lines."""
    width, height, margin = 640, 480, 60.0
    series = []
    values = []
    hs = [row.h for row in report.rows]
    for name in report.fields:
        for norm in report.norms(name):
            errs = [row.errors[name][norm] for row in report.rows]
            if all(e > 0 for e in errs):
                series.append((f"e{norm[-1]}({name})", errs))
                values.extend(errs)
    if not values or len(hs) < 2:
        return ("<svg xmlns='http://www.w3.org/2000/svg' "
                f"width='{width}' height='{height}'></svg>")
    lx = [math.log10(h) for h in hs]
    ly_min = math.log10(min(values))
    ly_max = math.log10(max(values))
    span_y = max(ly_max - ly_min, 1e-9)

    def to_px(logh, loge):
        x = margin + (logh - lx[-1]) / (lx[0] - lx[-1]) * (width - 2 * margin)
        y = height - margin - (loge - ly_min) / span_y * (height - 2 * margin)
        return x, y

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2", "#7f7f7f", "#bcbd22"]
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
             f"height='{height}' font-family='monospace' font-size='12'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
             f"y2='{height - margin}' stroke='black'/>",
             f"<line x1='{margin}' y1='{margin}' x2='{margin}' "
             f"y2='{height - margin}' stroke='black'/>",
             f"<text x='{width / 2:.0f}' y='{height - 15}'>log10 h</text>",
             f"<text x='10' y='{height / 2:.0f}' transform='rotate(-90 14,"
             f"{height / 2:.0f})'>log10 error</text>"]
    # reference slopes anchored at the coarsest level of the first series
    anchor = math.log10(series[0][1][0])
    for slope, dash in ((1, "4,4"), (2, "8,4")):
        pts = [to_px(lh, anchor + slope * (lh - lx[0])) for lh in (lx[0], lx[-1])]
        parts.append(f"<path d='{_svg_path(pts)}' stroke='#aaaaaa' fill='none' "
                     f"stroke-dasharray='{dash}'/>")
        parts.append(f"<text x='{pts[1][0] + 4:.0f}' y='{pts[1][1]:.0f}' "
                     f"fill='#888888'>slope {slope}</text>")
    for idx, (label, errs) in enumerate(series):
        color = palette[idx % len(palette)]
        pts = [to_px(lh, math.log10(e)) for lh, e in zip(lx, errs)]
        parts.append(f"<path d='{_svg_path(pts)}' stroke='{color}' "
                     "fill='none' stroke-width='1.5'/>")
        for x, y in pts:
            parts.append(f"<circle cx='{x:.2f}' cy='{y:.2f}' r='3' "
                         f"fill='{color}'/>")
        parts.append(f"<text x='{width - margin + 6:.0f}' "
                     f"y='{margin + 16 * idx:.0f}' fill='{color}'>{label}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
