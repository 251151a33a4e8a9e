"""Embedding-space diagnostics: centroids, inter-class distance, intra-class
compactness, and a separability ratio.

Distances follow the squared-Euclidean definitions; because published
figures in this area are often quoted without units, the report carries
both squared and unsquared columns, labeled explicitly. The separability
ratio sqrt(D)/(sqrt(intra_i)+sqrt(intra_j)+eps) is toolkit-defined and
marked as such in the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_io import LABELS, ClassLabel
from .encoder import Embedding
from .util import PipelineError

SEP_EPS = 1e-12


@dataclass
class ClassGeometry:
    labels: list[ClassLabel]
    centroids: dict[ClassLabel, np.ndarray]
    inter_sq: dict[tuple[str, str], float]      # ||c_i - c_j||^2
    intra_sq_mean: dict[str, float]             # mean ||x - c||^2 over members
    n_per_class: dict[str, int]


def class_geometry(embeddings: list[Embedding]) -> ClassGeometry:
    """Centroids plus squared inter/intra distances.

    Members are sorted by clip id before reduction, so the result is exactly
    invariant under permutation of the input order.
    """
    if not embeddings:
        raise PipelineError("no embeddings given")
    present = [lab for lab in LABELS if any(e.label == lab for e in embeddings)]
    if not present:
        raise PipelineError("embeddings carry no known class labels")
    groups = {
        lab: np.stack([e.vec for e in sorted(embeddings, key=lambda e: e.clip_id)
                       if e.label == lab])
        for lab in present
    }
    centroids = {lab: g.mean(axis=0) for lab, g in groups.items()}
    inter_sq = {}
    for i, a in enumerate(present):
        for b in present[i + 1:]:
            diff = centroids[a] - centroids[b]
            inter_sq[(a.value, b.value)] = float(diff @ diff)
    intra_sq = {
        lab.value: float(np.mean(np.sum((groups[lab] - centroids[lab]) ** 2, axis=1)))
        for lab in present
    }
    return ClassGeometry(
        labels=present,
        centroids=centroids,
        inter_sq=inter_sq,
        intra_sq_mean=intra_sq,
        n_per_class={lab.value: groups[lab].shape[0] for lab in present},
    )


def separability(geom: ClassGeometry) -> dict[tuple[str, str], float]:
    """S_ij = sqrt(inter_sq) / (sqrt(intra_i) + sqrt(intra_j) + SEP_EPS)."""
    out = {}
    for (a, b), d_sq in geom.inter_sq.items():
        denom = np.sqrt(geom.intra_sq_mean[a]) + np.sqrt(geom.intra_sq_mean[b]) + SEP_EPS
        out[(a, b)] = float(np.sqrt(d_sq) / denom)
    return out


def geometry_report(embeddings: list[Embedding]) -> dict:
    geom = class_geometry(embeddings)
    sep = separability(geom)
    return {
        "n_per_class": geom.n_per_class,
        "inter_class": [
            {
                "pair": [a, b],
                "distance_sq": d_sq,
                "distance": float(np.sqrt(d_sq)),
            }
            for (a, b), d_sq in sorted(geom.inter_sq.items())
        ],
        "intra_class": {
            lab: {
                "mean_distance_sq": v,
                "rms_distance": float(np.sqrt(v)),
            }
            for lab, v in sorted(geom.intra_sq_mean.items())
        },
        "separability": {
            "definition": "toolkit-defined: sqrt(inter_sq)/(sqrt(intra_i)+sqrt(intra_j)+eps)",
            "pairs": [
                {"pair": [a, b], "value": v} for (a, b), v in sorted(sep.items())
            ],
        },
    }
