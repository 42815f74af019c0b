"""Minimal SVG line plots for the harness CSV schema.

Renders mean curves with a +-1 standard deviation band, one series per CSV,
legend labels taken from the file stems.  Only finite points are drawn: a
censored grid point's CSV holds NaN means, and a series with no finite point
keeps its legend entry, marked censored.  No plotting library involved; the
output is a standalone SVG document.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

REQUIRED_COLUMNS = ("epoch", "mean_dist", "std_dist", "censored_count")

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


class PlotError(ValueError):
    pass


@dataclass(frozen=True)
class PlotSpec:
    inputs: tuple[str, ...]
    output: str
    title: str = ""
    xlabel: str = "epoch"
    ylabel: str = "mean distance"
    logy: bool = False


@dataclass(frozen=True)
class Series:
    label: str
    x: list[float]
    mean: list[float]
    std: list[float]


def read_series_csv(path) -> Series:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError:
            raise PlotError(f"{path}: not UTF-8 text") from None
        except csv.Error as e:
            raise PlotError(f"{path}: {e}") from None
    for col in REQUIRED_COLUMNS:
        if col not in (reader.fieldnames or []):
            raise PlotError(f"{path}: missing column {col!r}")
    x, mean, std = [], [], []
    for row in rows:
        try:
            x.append(float(row["epoch"]))
            mean.append(float(row["mean_dist"]))
            std.append(float(row["std_dist"]))
        except (TypeError, ValueError) as e:
            raise PlotError(f"{path}: bad row {row!r}") from e
    if not x:
        raise PlotError(f"{path}: no data rows")
    return Series(label=Path(path).stem, x=x, mean=mean, std=std)


def _span(lo: float, hi: float, axis: str) -> tuple[float, float]:
    """(lo, hi) of an axis, widened to lo + 1 when the points span nothing;
    PlotError when the span is still 0 (lo + 1 == lo), is too small for the
    tick step to be a normal float, or is not finite."""
    if hi <= lo:
        hi = lo + 1.0
    if not sys.float_info.min <= hi - lo < math.inf:
        raise PlotError(f"the {axis} axis cannot span {lo:g}..{hi:g}")
    return lo, hi


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """Round values from lo to hi, `count` or so; each is a multiple of the
    step, so a step below the spacing of floats near lo cannot stall them."""
    raw = (hi - lo) / count
    mag = 10 ** math.floor(math.log10(raw))
    for m in (1, 2, 2.5, 5, 10):
        if raw <= m * mag:
            stepv = m * mag
            break
    ticks = [round(i * stepv, 12) for i in range(math.ceil(lo / stepv), math.floor(hi / stepv + 1e-12) + 1)]
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:g}"


def emit_plot(spec: PlotSpec) -> str:
    """Render the CSVs named in `spec` to a standalone SVG file.

    Returns the output path, creating its directory.  Raises PlotError for
    schema violations, empty inputs or no finite point in any input before
    anything is written.
    """
    if not spec.inputs:
        raise PlotError("no input CSVs given")
    series = [read_series_csv(p) for p in spec.inputs]
    # per series, the (x, mean, std) points whose line and band are finite
    finite = [
        [(x, m, sd) for x, m, sd in zip(s.x, s.mean, s.std) if all(map(math.isfinite, (x, m - sd, m + sd)))]
        for s in series
    ]
    if not any(finite):
        raise PlotError("no finite point in any input: every series is censored")

    width, height = 800, 500
    ml, mr, mt, mb = 70, 160, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    xs = [x for points in finite for x, _, _ in points]
    x_lo, x_hi = _span(min(xs), max(xs), "x")

    if spec.logy:
        pos = [m for points in finite for _, m, _ in points if m > 0]
        # a tenth of a subnormal mean underflows to 0, which has no log
        floor = max(min(pos) / 10.0, sys.float_info.min) if pos else 1e-12
        tops = [max(m + sd, floor) for points in finite for _, m, sd in points]
        y_lo = math.log10(floor)
        y_hi = math.log10(max(max(tops), floor * 10))

        def ymap(v: float) -> float:
            return math.log10(max(v, floor))

        decades = range(math.floor(y_lo), math.ceil(y_hi) + 1)
        # every k-th decade, so an axis spanning hundreds keeps at most 11 labels
        k = math.ceil((len(decades) - 1) / 10)
        y_ticks = [10.0**p for p in decades if p % k == 0]
        y_tick_pos = [math.log10(t) for t in y_ticks]
    else:
        tops = [m + sd for points in finite for _, m, sd in points]
        bots = [m - sd for points in finite for _, m, sd in points]
        y_lo, y_hi = _span(min(0.0, min(bots)), max(tops), "y")

        def ymap(v: float) -> float:
            return v

        y_ticks = _ticks(y_lo, y_hi)
        y_tick_pos = list(y_ticks)

    span_y = (y_hi - y_lo) or 1.0

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return mt + ph - (ymap(v) - y_lo) / span_y * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            parts.append(
                f'<line x1="{px(t):.2f}" y1="{mt + ph}" x2="{px(t):.2f}" y2="{mt + ph + 5}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{px(t):.2f}" y="{mt + ph + 20}" font-size="12" text-anchor="middle">{_fmt(t)}</text>'
            )
    for t, tp in zip(y_ticks, y_tick_pos):
        if y_lo - 1e-12 <= tp <= y_hi + 1e-12:
            ypix = mt + ph - (tp - y_lo) / span_y * ph
            parts.append(f'<line x1="{ml - 5}" y1="{ypix:.2f}" x2="{ml}" y2="{ypix:.2f}" stroke="#333"/>')
            parts.append(
                f'<text x="{ml - 8}" y="{ypix + 4:.2f}" font-size="12" text-anchor="end">{_fmt(t)}</text>'
            )
    for i, (s, points) in enumerate(zip(series, finite)):
        color = PALETTE[i % len(PALETTE)]
        label = s.label
        if points:
            upper = [(px(x), py(m + sd)) for x, m, sd in points]
            lower = [(px(x), py(m - sd)) for x, m, sd in points]
            band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
            parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
            line = " ".join(f"{px(x):.2f},{py(m):.2f}" for x, m, _ in points)
            parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        else:
            label += " (censored)"
        ly = mt + 14 + 18 * i
        lx = ml + pw + 12
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="14" height="4" fill="{color}"/>')
        parts.append(f'<text x="{lx + 20}" y="{ly}" font-size="12">{_escape(label)}</text>')
    parts.append(
        f'<text x="{ml + pw / 2}" y="{height - 12}" font-size="13" text-anchor="middle">{_escape(spec.xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ph / 2})">{_escape(spec.ylabel)}</text>'
    )
    if spec.title:
        parts.append(
            f'<text x="{ml + pw / 2}" y="24" font-size="15" text-anchor="middle">{_escape(spec.title)}</text>'
        )
    parts.append("</svg>")
    Path(spec.output).parent.mkdir(parents=True, exist_ok=True)
    with open(spec.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return spec.output


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
