"""Minimal SVG export for trajectory overlays.

Hand-emitted markup, no plotting dependency: polylines for the first two
coordinates of each trajectory batch (for one-dimensional data, x against
t), optional markers at the data means, a small legend.  Output is
deterministic for fixed inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

VIEW = 640
MARGIN = 48


def _plane(positions, times):
    # The drawn (horizontal, vertical) pairs of (T+1, ..., D) positions: a
    # view of the first two coordinates, or (t, x) when D == 1.
    if positions.shape[-1] >= 2:
        return positions[..., :2]
    t = times.reshape((-1,) + (1,) * (positions.ndim - 1))
    return np.concatenate((np.broadcast_to(t, positions.shape), positions),
                          axis=-1)


def _mean_points(means):
    # drawn like positions; with one coordinate the means sit at t = 0
    means = np.asarray(means, dtype=float)
    return _plane(means, np.zeros(len(means)))


def _data_box(records, means):
    # one min and max per record, over views: no copy of a trajectory with
    # two or more coordinates
    pts = [_mean_points(means)] if means is not None else []
    for _, _, record in records:
        xy = _plane(record.positions, record.times)
        axes = tuple(range(xy.ndim - 1))
        pts += [xy.min(axis=axes), xy.max(axis=axes)]
    allp = np.vstack(pts)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.06 * span.max()
    return lo - pad, hi + pad


def trajectory_overlay_svg(records, path, means=None, limit=8):
    """Write an overlay of labeled (label, color, TrajectoryRecord) entries.

    Only the first `limit` batch elements of each record are drawn; the y
    axis is flipped so the picture matches math coordinates.  Trajectories
    with one coordinate are drawn as x (vertical) against t (horizontal),
    with the means at t = 0.
    """
    lo, hi = _data_box(records, means)
    scale = (VIEW - 2 * MARGIN) / float((hi - lo).max())

    def to_px(xy):
        px = MARGIN + (xy[..., 0] - lo[0]) * scale
        py = VIEW - MARGIN - (xy[..., 1] - lo[1]) * scale
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW}" '
        f'height="{VIEW}" viewBox="0 0 {VIEW} {VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{VIEW - 2 * MARGIN}" '
        f'height="{VIEW - 2 * MARGIN}" fill="none" stroke="#cccccc"/>',
    ]
    if means is not None:
        mx, my = to_px(_mean_points(means))
        for x, y in zip(mx, my):
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="none" '
                f'stroke="#333333" stroke-width="1.2"/>'
            )
    for li, (label, color, record) in enumerate(records):
        pos = record.positions
        pos = pos.reshape(pos.shape[0], -1, pos.shape[-1])  # (T+1, N, D)
        count = min(int(limit), pos.shape[1])
        for b in range(count):
            px, py = to_px(_plane(pos[:, b], record.times))
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.1" opacity="0.85"/>'
            )
            parts.append(
                f'<circle cx="{px[-1]:.2f}" cy="{py[-1]:.2f}" r="2.2" '
                f'fill="{color}"/>'
            )
        ly = MARGIN + 16 + 18 * li
        parts.append(
            f'<line x1="{MARGIN + 10}" y1="{ly - 4}" x2="{MARGIN + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{MARGIN + 40}" y="{ly}" font-family="monospace" '
            f'font-size="13" fill="#222222">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
