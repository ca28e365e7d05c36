"""Static file exports: GML graph descriptions and SVG point plots."""

from __future__ import annotations

import numpy as np

from .mapper import MapperGraph
from .partition import PartitionResult

BOUNDARY_COLOR = "#f5c518"  # yellow
SINGULAR_COLOR = "#2457e6"  # blue
UNASSIGNED_COLOR = "#9a9a9a"

# Length in pixels of the longer side of an SVG plot.
SVG_SIZE = 640

SEGMENT_PALETTE = (
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
    "#e377c2",
    "#8c564b",
    "#bcbd22",
    "#1b9e77",
    "#a6611a",
)


def write_gml(path, graph: MapperGraph) -> None:
    """Undirected GML description; node `points` lists the member indices."""
    lines = ["graph [", "  directed 0"]
    for i, node in enumerate(graph.nodes):
        pts = " ".join(map(str, node.points.tolist()))
        lines += [
            "  node [",
            f"    id {i}",
            f'    label "{i}"',
            f'    points "{pts}"',
            "  ]",
        ]
    for a, b in graph.edges.tolist():
        lines += ["  edge [", f"    source {a}", f"    target {b}", "  ]"]
    lines.append("]")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def segment_colors(n_points: int, part: PartitionResult) -> list[str]:
    """Per-point fill colors: segments cycle the palette, characteristic points
    use the reserved boundary/singular colors."""
    palette = (*SEGMENT_PALETTE, BOUNDARY_COLOR, SINGULAR_COLOR, UNASSIGNED_COLOR)
    code = np.full(n_points, len(palette) - 1)
    for si, seg in enumerate(part.segments):
        code[seg.point_indices] = si % len(SEGMENT_PALETTE)
    code[part.removed_boundary_points] = len(SEGMENT_PALETTE)
    code[part.removed_singular_points] = len(SEGMENT_PALETTE) + 1
    return [palette[c] for c in code.tolist()]


def write_svg(path, points: np.ndarray, colors: list[str]) -> None:
    """Scatter plot of a planar cloud; y grows upward as in the parameter domain."""
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] == 0:
        lo = np.zeros(2)
        hi = np.ones(2)
    else:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(span.max())
    lo = lo - pad
    span = span + 2 * pad
    scale = SVG_SIZE / float(span.max())
    width = span[0] * scale
    height = span[1] * scale
    radius = max(1.5, 0.004 * SVG_SIZE)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>',
    ]
    cxs = ((points[:, 0] - lo[0]) * scale).tolist()
    cys = (height - (points[:, 1] - lo[1]) * scale).tolist()
    for cx, cy, color in zip(cxs, cys, colors):
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
