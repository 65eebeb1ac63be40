"""Static SVG diagrams of packing configurations.

Output is a pure function of the input configuration and options, so
identical inputs give byte-identical documents.  The container drawn
is the physical one, offset outward from the center domain by one
disk radius.
"""

from __future__ import annotations

import math
from typing import List

from . import geometry
from .builder import PackingConfiguration
from .geometry import CIRCLE


def _f(x: float) -> str:
    # a rounding residue in (-5e-9, 0) prints as 0, whatever its sign
    s = f"{x:.8f}"
    return "0.00000000" if s == "-0.00000000" else s


def render_svg(config: PackingConfiguration, contacts: bool = False, fundamental: bool = False) -> str:
    centers = config.centers
    r = config.diameter / 2.0
    sigma = config.sigma
    extent = 1.0 + r if sigma == CIRCLE else geometry.circumradius(sigma, r)
    margin = extent * 1.02

    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{_f(-margin)} {_f(-margin)} {_f(2 * margin)} {_f(2 * margin)}">'
    )
    parts.append('<g transform="scale(1,-1)">')

    sw = _f(config.diameter * 0.02)
    if sigma == CIRCLE:
        parts.append(
            f'<circle class="container" cx="0" cy="0" r="{_f(1.0 + r)}" '
            f'fill="none" stroke="#222222" stroke-width="{sw}"/>'
        )
    else:
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in geometry.polygon_vertices(sigma, r))
        parts.append(
            f'<polygon class="container" points="{pts}" '
            f'fill="none" stroke="#222222" stroke-width="{sw}"/>'
        )

    if fundamental:
        if sigma == CIRCLE:
            a0 = 1.5 * math.pi
            a1 = a0 + math.pi / 3.0
            rr = 1.0 + r
            x0, y0 = rr * math.cos(a0), rr * math.sin(a0)
            x1, y1 = rr * math.cos(a1), rr * math.sin(a1)
            parts.append(
                f'<path class="fundamental" d="M 0 0 L {_f(x0)} {_f(y0)} '
                f'A {_f(rr)} {_f(rr)} 0 0 1 {_f(x1)} {_f(y1)} Z" '
                f'fill="#f5d76e" fill-opacity="0.45" stroke="none"/>'
            )
        else:
            # P1, the vertices within pi/3 of it, and the boundary point at
            # P1's angle + pi/3, which is a vertex only when 6 divides sigma
            verts = geometry.polygon_vertices(sigma, r)
            wedge = [(0.0, 0.0)] + verts[: sigma // 6 + 1]
            if sigma % 6:
                scale = geometry.circumradius(sigma, r)
                x, y = geometry.interior_point(0.5 * math.pi, geometry.vertex_angle(sigma) + math.pi / 3.0, sigma)
                wedge.append((scale * x, scale * y))
            pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in wedge)
            parts.append(
                f'<polygon class="fundamental" points="{pts}" '
                f'fill="#f5d76e" fill-opacity="0.45" stroke="none"/>'
            )

    # each center formatted once; Python floats format about three times
    # faster than numpy scalars, to the same text
    points = [(_f(x), _f(y)) for x, y in centers.tolist()]
    if contacts:
        for i, j in geometry.contact_pairs(centers, config.diameter, 1e-6).tolist():
            (x1, y1), (x2, y2) = points[i], points[j]
            parts.append(
                f'<line class="contact" x1="{x1}" y1="{y1}" '
                f'x2="{x2}" y2="{y2}" '
                f'stroke="#b03a2e" stroke-width="{sw}"/>'
            )

    sr = _f(r)
    for x, y in points:
        parts.append(
            f'<circle class="disk" cx="{x}" cy="{y}" r="{sr}" '
            f'fill="#5b8db8" fill-opacity="0.75" stroke="#1f4060" stroke-width="{sw}"/>'
        )

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
