"""Embedding-space diagnostics: `geometry_report` takes the embedding
matrix with its rows' clip ids and class labels, and returns the geometry
document as it is written to embedding_geometry.json, with per-class counts,
inter-class centroid distances, intra-class compactness and a separability
ratio for every pair of classes present.

Distances follow the squared-Euclidean definitions; because published
figures in this area are often quoted without units, the report carries
both squared and unsquared columns, labeled explicitly. The separability
ratio sqrt(D)/(sqrt(intra_i)+sqrt(intra_j)+eps) is toolkit-defined and
marked as such in the output.
"""

from __future__ import annotations

import itertools

import numpy as np

from .audio_io import LABELS, ClassLabel
from .util import PipelineError

SEP_EPS = 1e-12


def geometry_report(ids: list[str], labels: list[ClassLabel], x: np.ndarray) -> dict:
    """Centroid distances D = ||c_i - c_j||^2 and intra = mean ||x - c||^2
    over the rows of ``x``, row i being clip ``ids[i]`` of class ``labels[i]``.

    Rows are sorted by clip id before reduction, so the result is exactly
    invariant under permutation of the input order.
    """
    if not ids:
        raise PipelineError("no embeddings given")
    order = sorted(range(len(ids)), key=ids.__getitem__)
    groups = {lab.value: x[[i for i in order if labels[i] == lab]]
              for lab in LABELS if lab in labels}
    centroids = {lab: g.mean(axis=0) for lab, g in groups.items()}
    intra_sq = {lab: float(np.mean(np.sum((g - centroids[lab]) ** 2, axis=1)))
                for lab, g in groups.items()}
    inter, sep = [], []
    for a, b in sorted(itertools.combinations(groups, 2)):
        diff = centroids[a] - centroids[b]
        d_sq = float(diff @ diff)
        inter.append({
            "pair": [a, b],
            "distance_sq": d_sq,
            "distance": float(np.sqrt(d_sq)),
        })
        denom = np.sqrt(intra_sq[a]) + np.sqrt(intra_sq[b]) + SEP_EPS
        sep.append({"pair": [a, b], "value": float(np.sqrt(d_sq) / denom)})
    return {
        "n_per_class": {lab: g.shape[0] for lab, g in groups.items()},
        "inter_class": inter,
        "intra_class": {
            lab: {
                "mean_distance_sq": v,
                "rms_distance": float(np.sqrt(v)),
            }
            for lab, v in sorted(intra_sq.items())
        },
        "separability": {
            "definition": "toolkit-defined: sqrt(inter_sq)/(sqrt(intra_i)+sqrt(intra_j)+eps)",
            "pairs": sep,
        },
    }
