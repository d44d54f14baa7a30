"""Self-contained SVG rendering of the paper's figures.

Generates stacked-bar charts in the style of the paper's Figures 6-10
(hit / backup-hit / not-predicted below the 100 % line, misses stacked
above it) and Figure 8 (energy components as fractions of the Base
system), as standalone SVG documents — no plotting library required.

Used by the CLI (``python -m repro figure 7 --svg fig7.svg``) and
available programmatically::

    svg = render_accuracy_svg(
        build_fig7(runner.run_matrix(FIG7_PREDICTORS)), "Figure 7"
    )
    Path("fig7.svg").write_text(svg)
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.analysis.figures import AccuracyFigure, EnergyFigure

#: Colors for the accuracy stacks (hit primary/backup, not pred, miss).
ACCURACY_COLORS = {
    "hit_primary": "#2b6cb0",
    "hit_backup": "#90cdf4",
    "not_predicted": "#d9d9d9",
    "miss": "#c53030",
}

#: Colors for the Figure-8 energy components.
ENERGY_COLORS = {
    "busy": "#2f855a",
    "idle_short": "#f6e05e",
    "idle_long": "#dd6b20",
    "power_cycle": "#805ad5",
}

_BAR_WIDTH = 26
_BAR_GAP = 10
_GROUP_GAP = 34
_CHART_HEIGHT = 220
_MARGIN_LEFT = 56
_MARGIN_TOP = 48
_MARGIN_BOTTOM = 70
_CLIP = 1.5  # the paper's figures run to ~140 %


def _rect(x: float, y: float, w: float, h: float, color: str) -> str:
    if h <= 0:
        return ""
    return (
        f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
        f'height="{h:.1f}" fill="{color}"/>'
    )


def _text(x: float, y: float, content: str, *, size: int = 11,
          anchor: str = "middle", rotate: float | None = None) -> str:
    transform = (
        f' transform="rotate({rotate} {x:.1f} {y:.1f})"' if rotate else ""
    )
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="Helvetica, Arial, sans-serif" '
        f'text-anchor="{anchor}"{transform}>{escape(content)}</text>'
    )


def _scale(fraction: float) -> float:
    return min(fraction, _CLIP) / _CLIP * _CHART_HEIGHT


def _legend(items: dict[str, str], x: float, y: float) -> list[str]:
    parts = []
    offset = 0.0
    for label, color in items.items():
        parts.append(_rect(x + offset, y - 9, 10, 10, color))
        parts.append(
            _text(x + offset + 14, y, label, size=10, anchor="start")
        )
        offset += 14 + 7 * len(label) + 16
    return parts


def _frame(width: float, title: str, legend: dict[str, str]) -> list[str]:
    height = _MARGIN_TOP + _CHART_HEIGHT + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height}" viewBox="0 0 {width:.0f} {height}">',
        _rect(0, 0, width, height, "#ffffff"),
        _text(width / 2, 22, title, size=14),
    ]
    parts.extend(_legend(legend, _MARGIN_LEFT, 38))
    # Y axis: 0 to 150 % with a line at 100 %.
    for pct in (0.0, 0.5, 1.0, 1.5):
        y = _MARGIN_TOP + _CHART_HEIGHT - _scale(pct)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{y:.1f}" '
            f'x2="{width - 8:.1f}" y2="{y:.1f}" '
            f'stroke="{"#333333" if pct == 1.0 else "#dddddd"}" '
            f'stroke-width="{1.2 if pct == 1.0 else 0.6}"/>'
        )
        parts.append(
            _text(_MARGIN_LEFT - 8, y + 4, f"{pct:.0%}", size=10,
                  anchor="end")
        )
    return parts


def render_accuracy_svg(figure: AccuracyFigure, title: str) -> str:
    """The whole accuracy figure as one SVG document."""
    applications = list(figure)
    predictors = list(next(iter(figure.values())))
    group_width = len(predictors) * (_BAR_WIDTH + _BAR_GAP)
    width = (
        _MARGIN_LEFT
        + len(applications) * (group_width + _GROUP_GAP)
        + 20
    )
    parts = _frame(width, title, {
        "hit (primary)": ACCURACY_COLORS["hit_primary"],
        "hit (backup)": ACCURACY_COLORS["hit_backup"],
        "not predicted": ACCURACY_COLORS["not_predicted"],
        "miss": ACCURACY_COLORS["miss"],
    })
    x = float(_MARGIN_LEFT + 8)
    baseline = _MARGIN_TOP + _CHART_HEIGHT
    for application in applications:
        group_start = x
        for predictor in predictors:
            bar = figure[application][predictor]
            y = baseline
            for key, fraction in (
                ("hit_primary", bar.hit_primary),
                ("hit_backup", bar.hit_backup),
                ("not_predicted", bar.not_predicted),
                ("miss", bar.miss),
            ):
                h = _scale(fraction)
                y -= h
                parts.append(
                    _rect(x, y, _BAR_WIDTH, h, ACCURACY_COLORS[key])
                )
            parts.append(
                _text(x + _BAR_WIDTH / 2, baseline + 14, predictor,
                      size=9, rotate=-35)
            )
            x += _BAR_WIDTH + _BAR_GAP
        parts.append(
            _text((group_start + x - _BAR_GAP) / 2, baseline + 46,
                  application, size=11)
        )
        x += _GROUP_GAP
    parts.append("</svg>")
    return "\n".join(part for part in parts if part)


def render_energy_svg(
    figure: EnergyFigure, title: str = "Figure 8: Energy distribution"
) -> str:
    """The Figure-8 energy chart as one SVG document."""
    applications = list(figure)
    predictors = list(next(iter(figure.values())))
    group_width = len(predictors) * (_BAR_WIDTH + _BAR_GAP)
    width = (
        _MARGIN_LEFT
        + len(applications) * (group_width + _GROUP_GAP)
        + 20
    )
    parts = _frame(width, title, {
        "busy I/O": ENERGY_COLORS["busy"],
        "idle < breakeven": ENERGY_COLORS["idle_short"],
        "idle > breakeven": ENERGY_COLORS["idle_long"],
        "power cycle": ENERGY_COLORS["power_cycle"],
    })
    x = float(_MARGIN_LEFT + 8)
    baseline = _MARGIN_TOP + _CHART_HEIGHT
    for application in applications:
        group_start = x
        for predictor in predictors:
            bar = figure[application][predictor]
            y = baseline
            for key, fraction in (
                ("busy", bar.busy),
                ("idle_short", bar.idle_short),
                ("idle_long", bar.idle_long),
                ("power_cycle", bar.power_cycle),
            ):
                h = _scale(fraction)
                y -= h
                parts.append(_rect(x, y, _BAR_WIDTH, h, ENERGY_COLORS[key]))
            parts.append(
                _text(x + _BAR_WIDTH / 2, baseline + 14, predictor,
                      size=9, rotate=-35)
            )
            x += _BAR_WIDTH + _BAR_GAP
        parts.append(
            _text((group_start + x - _BAR_GAP) / 2, baseline + 46,
                  application, size=11)
        )
        x += _GROUP_GAP
    parts.append("</svg>")
    return "\n".join(part for part in parts if part)
