"""Self-contained SVG rendering of network state.

``render_network_svg`` draws a 2D array topology with routers sized by
buffer occupancy and links coloured by carried-traffic intensity --
the visual counterpart of :func:`repro.stats.trace.channel_heatmap`.
No dependencies: the output is a plain SVG string, written by the CLI's
``trace`` command or from user code::

    from repro import SimConfig, run_simulation
    from repro.stats.svg import render_network_svg

    result = run_simulation(SimConfig(...), keep_engine=True)
    open("network.svg", "w").write(render_network_svg(result.engine))
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .trace import buffer_fill

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.engine import Engine

CELL = 80  # px between router centres
RADIUS = 14
MARGIN = 50


def _heat_colour(fraction: float) -> str:
    """White -> amber -> red ramp for link utilisation."""
    fraction = max(0.0, min(1.0, fraction))
    if fraction < 0.5:
        # white (255,255,255) -> amber (255,170,0)
        t = fraction / 0.5
        g = int(255 - t * 85)
        b = int(255 - t * 255)
        return f"rgb(255,{g},{b})"
    t = (fraction - 0.5) / 0.5
    g = int(170 - t * 170)
    return f"rgb(255,{g},0)"


def render_network_svg(engine: "Engine", title: str = "") -> str:
    """Render a 2D array network's current state as an SVG document.

    Raises ``ValueError`` for non-2D topologies (use the textual
    ``occupancy_snapshot`` there instead).
    """
    topology = engine.topology
    if len(topology.coords(0)) != 2:
        raise ValueError(
            "SVG rendering supports 2D arrays; use "
            "repro.stats.trace.occupancy_snapshot for other layouts"
        )
    radix = getattr(topology, "radix", None)
    if radix is None:
        raise ValueError("SVG rendering needs a k-ary array topology")

    max_flits = max(
        (ch.flits_carried for ch in engine.network.link_channels),
        default=0,
    )
    size = MARGIN * 2 + CELL * (radix - 1)
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size + 30}" viewBox="0 0 {size} {size + 30}">',
        f'<rect width="{size}" height="{size + 30}" fill="#fbfaf8"/>',
    ]
    if title:
        parts.append(
            f'<text x="{size / 2}" y="{size + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )

    def centre(node: int):
        x, y = topology.coords(node)
        return MARGIN + y * CELL, MARGIN + x * CELL

    # Links first (under the routers).  Wrap links are drawn as short
    # outward stubs rather than lines across the whole figure.
    for channel in engine.network.link_channels:
        sx, sy = centre(channel.src_node)
        dx, dy = centre(channel.dst_node)
        heat = channel.flits_carried / max_flits if max_flits else 0.0
        colour = "#888" if channel.dead else _heat_colour(heat)
        dash = ' stroke-dasharray="4,3"' if channel.dead else ""
        width = 1.5 + 3.5 * heat
        if channel.is_wrap:
            # Outward stub in the direction of travel: dimension 0 maps
            # to screen y (rows), dimension 1 to screen x (columns).
            if channel.dim == 1:
                ox, oy = channel.direction * CELL * 0.3, 0.0
            else:
                ox, oy = 0.0, channel.direction * CELL * 0.3
            parts.append(
                f'<line x1="{sx}" y1="{sy}" '
                f'x2="{sx + ox:.1f}" y2="{sy + oy:.1f}" '
                f'stroke="{colour}" stroke-width="{width:.1f}"{dash}/>'
            )
        else:
            parts.append(
                f'<line x1="{sx}" y1="{sy}" x2="{dx}" y2="{dy}" '
                f'stroke="{colour}" stroke-width="{width:.1f}"{dash}/>'
            )

    # Routers: radius fixed, fill darkens with buffered flits.
    for node, (occupancy, capacity) in buffer_fill(engine).items():
        fill_frac = occupancy / capacity if capacity else 0.0
        shade = int(235 - fill_frac * 180)
        cx, cy = centre(node)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{RADIUS}" '
            f'fill="rgb({shade},{shade},240)" stroke="#445"/>'
        )
        parts.append(
            f'<text x="{cx}" y="{cy + 4}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">'
            f"{node}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Sparklines (interval-sampler time series)
# ----------------------------------------------------------------------

SPARK_WIDTH = 480
SPARK_HEIGHT = 48
SPARK_GAP = 14
SPARK_LABEL = 130


def _spark_values(values: Sequence[Optional[float]]) -> List[float]:
    """Sanitize a sampler series for plotting.

    Interval samplers emit ``None`` for windows with nothing to
    average (an all-quiescent interval under the fast engine's event
    skipping, or simply no deliveries); plot those as 0.0 — the same
    convention ``IntervalSampler.to_svg`` uses — instead of letting
    ``float(None)``/``min`` blow up the whole heartbeat render.
    """
    return [0.0 if v is None else float(v) for v in values]


def _polyline_points(
    values: Sequence[float], width: int, height: int
) -> str:
    lo = min(values)
    hi = max(values)
    span = hi - lo
    step = width / max(len(values) - 1, 1)
    points = []
    for i, value in enumerate(values):
        # A constant series draws as a midline, not a degenerate point.
        frac = (value - lo) / span if span else 0.5
        points.append(f"{i * step:.1f},{height * (1 - frac):.1f}")
    return " ".join(points)


def render_sparkline(values: Sequence[float]) -> str:
    """One series as a bare ``<polyline>`` fragment (no document)."""
    if not values:
        return ""
    points = _polyline_points(_spark_values(values), SPARK_WIDTH,
                              SPARK_HEIGHT)
    return (
        '<polyline fill="none" stroke="#2266aa" stroke-width="1.5" '
        f'points="{points}"/>'
    )


def render_sparkline_rows(
    rows: Sequence[Tuple[str, Sequence[float]]],
    title: str = "",
) -> str:
    """Stacked labelled sparklines as one SVG document.

    ``rows`` is ``[(label, values), ...]`` -- typically the output of
    :meth:`repro.obs.sampler.IntervalSampler.series` per metric.  Each
    row is scaled independently (the point is shape over time, not
    cross-metric comparison); min/max annotations carry the magnitudes.
    """
    top = 28 if title else 8
    row_height = SPARK_HEIGHT + SPARK_GAP
    width = SPARK_LABEL + SPARK_WIDTH + 90
    height = top + row_height * len(rows) + 8
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#fbfaf8"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="18" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    for index, (label, raw) in enumerate(rows):
        y = top + index * row_height
        parts.append(
            f'<text x="{SPARK_LABEL - 8}" y="{y + SPARK_HEIGHT / 2 + 4}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
        values = _spark_values(raw)
        if values:
            line = render_sparkline(values)
            parts.append(
                f'<g transform="translate({SPARK_LABEL},{y})">{line}</g>'
            )
            parts.append(
                f'<text x="{SPARK_LABEL + SPARK_WIDTH + 6}" y="{y + 10}" '
                f'font-family="monospace" font-size="9">'
                f"max {max(values):g}</text>"
            )
            parts.append(
                f'<text x="{SPARK_LABEL + SPARK_WIDTH + 6}" '
                f'y="{y + SPARK_HEIGHT}" '
                f'font-family="monospace" font-size="9">'
                f"min {min(values):g}</text>"
            )
        else:
            parts.append(
                f'<text x="{SPARK_LABEL}" y="{y + SPARK_HEIGHT / 2 + 4}" '
                f'font-family="monospace" font-size="10" '
                f'fill="#999">(no samples)</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
