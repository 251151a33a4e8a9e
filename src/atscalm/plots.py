"""Static SVG charts: line plots for training histories and validation
overlays, scatter plots for 2-d embeddings. Output is plain text with fixed
float formatting, so identical inputs give identical bytes."""

from __future__ import annotations

import numpy as np

from . import dsp
from .util import PipelineError

WIDTH, HEIGHT = 640, 480
MARGIN = 56
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

CLASS_COLORS = {
    "SpiritualMeditation": "#1f77b4",
    "Music": "#d62728",
    "NormalSilence": "#2ca02c",
}


def _f(x: float) -> str:
    return f"{x:.3f}"


def _scale(vals: np.ndarray, lo_px: float, hi_px: float) -> tuple[float, float]:
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmax == vmin:
        vmax = vmin + 1.0
    k = (hi_px - lo_px) / (vmax - vmin)
    return vmin, k


def _axes(title: str, x_label: str, y_label: str) -> list[str]:
    return [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333333" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT // 2})">{y_label}</text>',
    ]


def _document(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"


def line_chart(series: dict[str, tuple[np.ndarray, np.ndarray]],
               title: str, x_label: str, y_label: str) -> str:
    """Polyline per named series; shared axes over the union of the data."""
    if not series:
        raise PipelineError("line_chart needs at least one series")
    xs_all = np.concatenate([np.asarray(x, float) for x, _ in series.values()])
    ys_all = np.concatenate([np.asarray(y, float) for _, y in series.values()])
    if xs_all.size == 0 or not (np.all(np.isfinite(xs_all)) and np.all(np.isfinite(ys_all))):
        raise PipelineError("line_chart input must be non-empty and finite")
    x0, kx = _scale(xs_all, MARGIN, WIDTH - MARGIN)
    y0, ky = _scale(ys_all, HEIGHT - MARGIN, MARGIN)
    body = _axes(title, x_label, y_label)
    for i, (name, (x, y)) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(
            f"{_f(MARGIN + (float(px) - x0) * kx)},{_f(HEIGHT - MARGIN + (float(py) - y0) * ky)}"
            for px, py in zip(np.asarray(x, float), np.asarray(y, float))
        )
        body.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN + 16 + 16 * i
        body.append(f'<line x1="{WIDTH - MARGIN - 110}" y1="{ly - 4}" '
                    f'x2="{WIDTH - MARGIN - 86}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        body.append(f'<text x="{WIDTH - MARGIN - 80}" y="{ly}" font-size="11">{name}</text>')
    lo_x, hi_x = float(np.min(xs_all)), float(np.max(xs_all))
    lo_y, hi_y = float(np.min(ys_all)), float(np.max(ys_all))
    body.append(f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" font-size="10">{_f(lo_x)}</text>')
    body.append(f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" text-anchor="end" '
                f'font-size="10">{_f(hi_x)}</text>')
    body.append(f'<text x="{MARGIN - 4}" y="{HEIGHT - MARGIN}" text-anchor="end" '
                f'font-size="10">{_f(lo_y)}</text>')
    body.append(f'<text x="{MARGIN - 4}" y="{MARGIN + 6}" text-anchor="end" '
                f'font-size="10">{_f(hi_y)}</text>')
    return _document(body)


def scatter_chart(points: list[tuple[float, float, str]], title: str) -> str:
    """(x, y, class_name) points colored per class, with centroid crosses."""
    if not points:
        raise PipelineError("scatter_chart needs at least one point")
    xs = np.array([p[0] for p in points], float)
    ys = np.array([p[1] for p in points], float)
    x0, kx = _scale(xs, MARGIN, WIDTH - MARGIN)
    y0, ky = _scale(ys, HEIGHT - MARGIN, MARGIN)
    body = _axes(title, "dim 1", "dim 2")
    classes = sorted({p[2] for p in points})
    for x, y, cls in points:
        color = CLASS_COLORS.get(cls, PALETTE[classes.index(cls) % len(PALETTE)])
        px = MARGIN + (x - x0) * kx
        py = HEIGHT - MARGIN + (y - y0) * ky
        body.append(f'<circle cx="{_f(px)}" cy="{_f(py)}" r="3" fill="{color}" fill-opacity="0.7"/>')
    for i, cls in enumerate(classes):
        color = CLASS_COLORS.get(cls, PALETTE[i % len(PALETTE)])
        sel = [p for p in points if p[2] == cls]
        cx = MARGIN + (float(np.mean([p[0] for p in sel])) - x0) * kx
        cy = HEIGHT - MARGIN + (float(np.mean([p[1] for p in sel])) - y0) * ky
        body.append(f'<path d="M {_f(cx - 6)} {_f(cy)} L {_f(cx + 6)} {_f(cy)} '
                    f'M {_f(cx)} {_f(cy - 6)} L {_f(cx)} {_f(cy + 6)}" '
                    f'stroke="{color}" stroke-width="2.5" fill="none"/>')
        ly = MARGIN + 16 + 16 * i
        body.append(f'<circle cx="{WIDTH - MARGIN - 100}" cy="{ly - 4}" r="4" fill="{color}"/>')
        body.append(f'<text x="{WIDTH - MARGIN - 90}" y="{ly}" font-size="11">{cls}</text>')
    return _document(body)


def validation_overlay(raw: np.ndarray, theoretical: np.ndarray, rate: float,
                       title: str, max_samples: int = 2000) -> tuple[str, str]:
    """(waveform SVG, spectrum SVG): recorded vs theoretical overlays."""
    n = min(raw.size, max_samples)
    t = np.arange(n) / rate
    wave_svg = line_chart(
        {"recorded": (t, raw[:n]), "theoretical": (t, theoretical[:n])},
        title + " (waveform)", "seconds", "amplitude",
    )
    n_fft = dsp.next_pow2(raw.size)
    m_raw = np.abs(dsp.fft(raw, n_fft))
    m_theo = np.abs(dsp.fft(theoretical, n_fft))
    bin_hz = rate / n_fft
    show = min(m_raw.size, int(200 / bin_hz) + 1)   # up to 200 Hz covers the class tones
    f = np.arange(show) * bin_hz
    spec_svg = line_chart(
        {"recorded": (f, m_raw[:show]), "theoretical": (f, m_theo[:show])},
        title + " (spectrum)", "Hz", "magnitude",
    )
    return wave_svg, spec_svg
