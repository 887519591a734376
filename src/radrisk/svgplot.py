"""Minimal deterministic SVG emission for survival and ROC plots.

No external plotting dependency: documents are assembled from strings, carry
no timestamps, and embed the resolved run configuration as an XML comment so
every artifact doubles as a reproducibility manifest. The Kaplan-Meier plot is
640x440 and the ROC plot 440x440.
"""

from __future__ import annotations

import math


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


class SvgCanvas:
    def __init__(self, width: int, height: int, comment: str | None = None):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
        ]
        if comment:
            self.parts.append(f"<!-- {comment} -->")
        self.parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{d}/>'
        )

    def path(self, points, stroke="black", width=1.5, dash=None):
        d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<path d="{d}" fill="none" stroke="{stroke}" stroke-width="{width}"{extra}/>'
        )

    def polygon(self, points, fill):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.2" stroke="none"/>')

    def text(self, x, y, content, size=12, anchor="start"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" font-size="{size}" '
            f'text-anchor="{anchor}" fill="black">{content}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _nice_ticks(vmax: float) -> list[float]:
    """About five ticks from 0 to ``vmax`` (> 0), at a step of 1, 2 or 5 times a power of 10."""
    raw = vmax / 5
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    ticks = []
    t = 0.0
    while t <= vmax + 1e-9:
        ticks.append(t)
        t += step
    return ticks


def _step_points(times, values, x_of, y_of, t_max):
    """Right-continuous step path starting at (0, 1)."""
    pts = [(x_of(0.0), y_of(1.0))]
    prev = 1.0
    for t, v in zip(times, values):
        pts.append((x_of(t), y_of(prev)))
        pts.append((x_of(t), y_of(v)))
        prev = v
    pts.append((x_of(t_max), y_of(prev)))
    return pts


def km_plot(curves, title: str, config_comment: str | None = None) -> str:
    """Render Kaplan-Meier curves with CI bands and censor ticks.

    ``curves`` is a list of (label, color, SurvivalCurve, dashed) tuples.
    """
    width, height = 640, 440
    margin_l, margin_r, margin_t, margin_b = 60, 20, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    # at least 1 day, so the axis and its ticks have a positive length
    t_max = max([1.0] + [float(c.times[-1]) if c.times.size else 1.0 for _, _, c, _ in curves])
    t_max = max(t_max, max([0.0] + [float(c.censor_times[-1]) for _, _, c, _ in curves if c.censor_times.size]))

    def x_of(t):
        return margin_l + plot_w * (t / t_max)

    def y_of(s):
        return margin_t + plot_h * (1.0 - s)

    svg = SvgCanvas(width, height, config_comment)
    svg.text(width / 2, margin_t - 14, title, size=14, anchor="middle")
    # axes
    svg.line(margin_l, margin_t, margin_l, margin_t + plot_h)
    svg.line(margin_l, margin_t + plot_h, margin_l + plot_w, margin_t + plot_h)
    for tick in _nice_ticks(t_max):
        svg.line(x_of(tick), margin_t + plot_h, x_of(tick), margin_t + plot_h + 4)
        svg.text(x_of(tick), margin_t + plot_h + 18, _fmt(tick), size=10, anchor="middle")
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        svg.line(margin_l - 4, y_of(s), margin_l, y_of(s))
        svg.text(margin_l - 8, y_of(s) + 3, _fmt(s), size=10, anchor="end")
    svg.text(margin_l + plot_w / 2, height - 12, "days since imaging", size=11, anchor="middle")
    svg.text(16, margin_t + plot_h / 2, "event-free fraction", size=11, anchor="middle")

    for label, color, curve, dashed in curves:
        if curve.times.size:
            upper = _step_points(curve.times, curve.ci_high, x_of, y_of, t_max)
            lower = _step_points(curve.times, curve.ci_low, x_of, y_of, t_max)
            svg.polygon(upper + lower[::-1], fill=color)
        svg.path(
            _step_points(curve.times, curve.surv, x_of, y_of, t_max),
            stroke=color,
            width=1.8,
            dash="6,4" if dashed else None,
        )
        for t in curve.censor_times:
            s = curve.survival_at(float(t))
            svg.line(x_of(t), y_of(s) - 4, x_of(t), y_of(s) + 4, stroke=color, width=1.0)

    ly = margin_t + 8
    for label, color, curve, dashed in curves:
        svg.line(margin_l + plot_w - 150, ly, margin_l + plot_w - 120, ly, stroke=color, width=2,
                 dash="6,4" if dashed else None)
        svg.text(margin_l + plot_w - 112, ly + 4, label, size=11)
        ly += 18
    return svg.render()


def roc_plot(fpr, tpr, auc_value: float, title: str, config_comment: str | None = None) -> str:
    width = height = 440
    margin = 50
    plot = width - 2 * margin

    def x_of(v):
        return margin + plot * v

    def y_of(v):
        return height - margin - plot * v

    svg = SvgCanvas(width, height, config_comment)
    svg.text(width / 2, margin - 18, title, size=14, anchor="middle")
    svg.line(margin, margin, margin, height - margin)
    svg.line(margin, height - margin, width - margin, height - margin)
    svg.path([(x_of(0), y_of(0)), (x_of(1), y_of(1))], stroke="#999999", width=1.0, dash="4,4")
    svg.path([(x_of(f), y_of(t)) for f, t in zip(fpr, tpr)], stroke="#c02020", width=1.8)
    for v in (0.0, 0.5, 1.0):
        svg.text(x_of(v), height - margin + 16, _fmt(v), size=10, anchor="middle")
        svg.text(margin - 8, y_of(v) + 3, _fmt(v), size=10, anchor="end")
    svg.text(width / 2, height - 10, "false positive rate", size=11, anchor="middle")
    svg.text(14, height / 2, "sensitivity", size=11, anchor="middle")
    svg.text(x_of(0.6), y_of(0.1), f"AUC = {auc_value:.3f}", size=12)
    return svg.render()
