"""Grouped bar charts as standalone SVG, one file per metric and supply.

Each chart compares the measured value against the published reference
per design, on a log y axis (the quantities span decades).  SVG is
emitted directly so the report pipeline needs no plotting dependency,
and the output is deterministic byte-for-byte.
"""

from __future__ import annotations

import math
import os

from .bench import PAPER_REFERENCE, REFERENCE_LABEL, CellResult

METRICS = {
    "power": ("Power (W)", lambda r: r.avg_power, 0),
    "delay": ("Delay (s)", lambda r: r.worst_delay, 1),
    "pdp": ("PDP (J)", lambda r: r.pdp, 2),
}

_W, _H = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 90
_MEASURED_FILL = "#4878a8"
_REFERENCE_FILL = "#c0c0c0"


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1)]


def chart_svg(metric: str, vdd: float, rows: list[CellResult]) -> str:
    """Grouped measured-vs-reference bars for one metric at one supply."""
    label, getter, ref_idx = METRICS[metric]
    entries = []
    for r in rows:
        ref_row = PAPER_REFERENCE.get(vdd, {}).get(r.design)
        reference = float(ref_row[ref_idx]) if ref_row else None
        entries.append((r.design, getter(r), reference))

    values = [v for _, m, ref in entries for v in (m, ref) if v]
    lo = min(values)
    hi = max(values)
    ticks = _log_ticks(lo, hi)
    y_lo, y_hi = math.log10(ticks[0]), math.log10(ticks[-1])
    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def y_of(value: float) -> float:
        frac = (math.log10(value) - y_lo) / (y_hi - y_lo)
        return _MARGIN_T + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:g}" y="20" text-anchor="middle" font-size="14">'
        f"{label} at {vdd:g} V</text>",
    ]
    for tick in ticks:
        y = y_of(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_W - _MARGIN_R}" y2="{y:.2f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 4:.2f}" text-anchor="end">{tick:.0e}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" x2="{_W - _MARGIN_R}" '
        f'y2="{_MARGIN_T + plot_h}" stroke="black"/>'
    )

    group_w = plot_w / max(len(entries), 1)
    bar_w = group_w * 0.32
    base_y = _MARGIN_T + plot_h
    for g, (name, measured, reference) in enumerate(entries):
        x0 = _MARGIN_L + g * group_w
        mx = x0 + group_w / 2 - bar_w
        my = y_of(measured)
        parts.append(
            f'<rect x="{mx:.2f}" y="{my:.2f}" width="{bar_w:.2f}" '
            f'height="{base_y - my:.2f}" fill="{_MEASURED_FILL}"/>'
        )
        if reference is not None:
            rx = x0 + group_w / 2
            ry = y_of(reference)
            parts.append(
                f'<rect x="{rx:.2f}" y="{ry:.2f}" width="{bar_w:.2f}" '
                f'height="{base_y - ry:.2f}" fill="{_REFERENCE_FILL}"/>'
            )
        tx = x0 + group_w / 2
        parts.append(
            f'<text x="{tx:.2f}" y="{base_y + 12:.2f}" text-anchor="end" '
            f'transform="rotate(-35 {tx:.2f} {base_y + 12:.2f})">{name}</text>'
        )

    legend_y = _H - 18
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{legend_y - 10}" width="12" height="12" fill="{_MEASURED_FILL}"/>'
    )
    parts.append(f'<text x="{_MARGIN_L + 16}" y="{legend_y}">measured (this model)</text>')
    parts.append(
        f'<rect x="{_MARGIN_L + 180}" y="{legend_y - 10}" width="12" height="12" '
        f'fill="{_REFERENCE_FILL}"/>'
    )
    parts.append(f'<text x="{_MARGIN_L + 196}" y="{legend_y}">{REFERENCE_LABEL}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def chart_csv(metric: str, vdd: float, rows: list[CellResult]) -> str:
    _, getter, ref_idx = METRICS[metric]
    lines = [f"design,measured_{metric},reference_{metric}"]
    for r in rows:
        ref_row = PAPER_REFERENCE.get(vdd, {}).get(r.design)
        ref = ref_row[ref_idx] if ref_row else ""
        lines.append(f"{r.design},{getter(r):.6e},{ref}")
    return "\n".join(lines) + "\n"


def write_charts(results: list[CellResult], out_dir: str) -> list[str]:
    """Emit <metric>_<vdd>.svg and .csv for every metric and supply present."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for vdd in sorted({r.vdd for r in results}, reverse=True):
        rows = [r for r in results if r.vdd == vdd]
        for metric in METRICS:
            stem = f"{metric}_{vdd:g}"
            for ext, text in (("svg", chart_svg(metric, vdd, rows)),
                              ("csv", chart_csv(metric, vdd, rows))):
                path = os.path.join(out_dir, f"{stem}.{ext}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written.append(path)
    return written
