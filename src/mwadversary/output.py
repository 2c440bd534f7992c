"""Deterministic CSV and SVG writers for the experiment pipelines.

CSV files use RFC-4180 quoting, '.' decimals at 15 significant digits (the
most at which every decimal input prints back as given), and carry one
leading comment line with the package version, a hash of the
resolved configuration, and the seed, so identical runs produce
byte-identical files.  SVG output is a minimal hand-rolled poly-line chart
(axes and labels only; no plotting dependency, no nondeterminism).
"""

from __future__ import annotations

import csv
import hashlib
import math
from typing import Mapping, Sequence

import numpy as np

from . import __version__

__all__ = ["fmt", "config_hash", "write_csv", "write_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def fmt(value) -> str:
    """Cell formatter: floats at 15 significant digits, None and NaN (an
    undefined estimate, such as the stderr of one trial) as blank.

    Fifteen is DBL_DIG: the most digits at which every decimal input prints
    back as given, so ``0.49999999999999994`` is written as ``0.5``.
    """
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def config_hash(resolved: Mapping[str, object]) -> str:
    text = "\n".join(f"{k}={fmt(v)}" for k, v in sorted(resolved.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_csv(
    path: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    scenario: str,
    resolved_config: Mapping[str, object],
    seed: int,
) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# mwadversary {__version__} scenario={scenario} "
            f"config_sha256={config_hash(resolved_config)} seed={seed}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])


def write_svg(
    path: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
) -> None:
    """Poly-line chart of (label, xs, ys) series on shared axes, each drawn
    in increasing x, with "stages N" on the x axis and "expected loss" on the y axis."""
    width, height, margin = 640, 420, 60
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if y is not None]
    if not pts:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts)
    y_hi = max(p[1] for p in pts)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        'font-size="12">stages N</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">expected loss</text>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10">{fmt(float(x_lo))}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" text-anchor="end" '
        f'font-size="10">{fmt(float(x_hi))}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" text-anchor="end" '
        f'font-size="10">{fmt(float(y_lo))}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" text-anchor="end" '
        f'font-size="10">{fmt(float(y_hi))}</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in sorted(zip(xs, ys), key=lambda p: p[0]) if y is not None
        )
        if coords:
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{width - margin + 6}" y="{margin + 14 * i}" font-size="10" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
