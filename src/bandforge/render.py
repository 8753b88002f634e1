"""
Deterministic SVG rendering of factor diagrams.

A factor is drawn on the unit disk with punctures on the radius-1/2 circle
at the DiskLayout angles; a block of size >= 3 fills its polygon, a 2-block
draws a chord, singletons are dots.  A normal form renders as a horizontal
strip of factor disks behind a delta-power label.  Output is byte-stable:
fixed ordering, fixed float formatting, no timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin

from .factors import CanonicalFactor
from .normal_form import LeftCanonicalForm

_FILL = "#9ec5e8"
_STROKE = "#1f3552"


@dataclass(frozen=True)
class DiskLayout:
    """Puncture placement for diagrams: point k at radius 1/2, angle theta_k.

    theta_k = (2k - 1 - n) * pi / n puts the punctures counterclockwise with
    P_1 and P_n separated by the half-line at angle pi.
    """

    n: int

    def angle(self, k: int) -> float:
        return (2 * k - 1 - self.n) * pi / self.n

    def position(self, k: int) -> tuple[float, float]:
        return 0.5 * cos(self.angle(k)), 0.5 * sin(self.angle(k))


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _disk_elements(a: CanonicalFactor, cx: float) -> list[str]:
    layout = DiskLayout(a.n)
    pts = {k: (cx + x, -y) for k, (x, y) in ((k, layout.position(k)) for k in range(1, a.n + 1))}
    parts = [
        f'<circle cx="{_fmt(cx)}" cy="0.0000" r="1.0000" fill="none" '
        f'stroke="{_STROKE}" stroke-width="0.02"/>'
    ]
    for block in a.blocks:
        if len(block) == 2:
            (x1, y1), (x2, y2) = pts[block[0]], pts[block[1]]
            parts.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
                f'stroke="{_STROKE}" stroke-width="0.035"/>'
            )
        elif len(block) > 2:
            coords = " ".join(f"{_fmt(pts[k][0])},{_fmt(pts[k][1])}" for k in block)
            parts.append(
                f'<polygon points="{coords}" fill="{_FILL}" '
                f'stroke="{_STROKE}" stroke-width="0.03"/>'
            )
    for k in range(1, a.n + 1):
        x, y = pts[k]
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.04" fill="{_STROKE}"/>')
    return parts


def _document(body: list[str], width: float) -> str:
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="-1.2 -1.2 {_fmt(width)} 2.4">'
    )
    return "\n".join([header, *body, "</svg>"]) + "\n"


def render_svg(target) -> str:
    """Render a CanonicalFactor or a LeftCanonicalForm."""
    if isinstance(target, CanonicalFactor):
        return _document(_disk_elements(target, 0.0), 2.4)
    if not isinstance(target, LeftCanonicalForm):
        raise TypeError(f"cannot render {type(target).__name__}")
    body = [
        f'<text x="-1.0000" y="0.1000" font-size="0.3">'
        f"d^{target.power}</text>"
    ]
    spacing = 2.6
    for i, f in enumerate(target.factors):
        body += _disk_elements(f, spacing * (i + 1))
    return _document(body, 2.4 + spacing * len(target.factors))
