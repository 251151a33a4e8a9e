import numpy as np
import pytest

from atscalm.audio_io import LABELS
from atscalm.embedding_eval import geometry_report
from atscalm.util import PipelineError, keyed_rng

SM, M, NS = LABELS


def embs_from(arrays_by_label):
    """`geometry_report`'s (ids, labels, x) for the given rows of each class."""
    ids, labels, rows = [], [], []
    for lab, arrs in arrays_by_label.items():
        for i, v in enumerate(arrs):
            ids.append(f"{lab.value}_{i}")
            labels.append(lab)
            rows.append(np.asarray(v, float))
    return ids, labels, np.stack(rows)


def inter_sq(rep):
    return {tuple(p["pair"]): p["distance_sq"] for p in rep["inter_class"]}


def intra_sq(rep):
    return {lab: v["mean_distance_sq"] for lab, v in rep["intra_class"].items()}


def separability(rep):
    return {tuple(p["pair"]): p["value"] for p in rep["separability"]["pairs"]}


class TestGeometry:
    def test_singletons(self):
        embs = embs_from({SM: [[1.0, 2.0]], M: [[3.0, 4.0]], NS: [[0.0, 0.0]]})
        rep = geometry_report(*embs)
        # a singleton's centroid is its vector: distances between the vectors
        assert inter_sq(rep)[(SM.value, M.value)] == 8.0
        assert inter_sq(rep)[(SM.value, NS.value)] == 5.0
        assert all(v == 0.0 for v in intra_sq(rep).values())

    def test_three_four_five_squared(self):
        embs = embs_from({SM: [[0.0, 0.0]], M: [[3.0, 4.0]]})
        rep = geometry_report(*embs)
        assert inter_sq(rep)[(SM.value, M.value)] == pytest.approx(25.0)
        assert rep["inter_class"][0]["distance"] == pytest.approx(5.0)

    def test_identical_classes_zero(self):
        same = [[1.0, 1.0], [2.0, 2.0]]
        embs = embs_from({SM: same, M: same})
        assert inter_sq(geometry_report(*embs))[(SM.value, M.value)] == pytest.approx(0.0)

    def test_permutation_invariance(self):
        rng = keyed_rng("perm", 0)
        embs = embs_from({lab: rng.normal(0, 1, (6, 4)) for lab in LABELS})
        ids, labels, x = embs
        assert geometry_report(*embs) == geometry_report(ids[::-1], labels[::-1], x[::-1])

    def test_translation_invariance(self):
        rng = keyed_rng("trans", 1)
        base = {lab: rng.normal(0, 1, (5, 3)) for lab in LABELS}
        shift = np.array([10.0, -4.0, 2.5])
        rep1 = geometry_report(*embs_from(base))
        rep2 = geometry_report(*embs_from({lab: v + shift for lab, v in base.items()}))
        for key in inter_sq(rep1):
            assert inter_sq(rep1)[key] == pytest.approx(inter_sq(rep2)[key], abs=1e-9)
        for key in intra_sq(rep1):
            assert intra_sq(rep1)[key] == pytest.approx(intra_sq(rep2)[key], abs=1e-9)
        s1, s2 = separability(rep1), separability(rep2)
        for key in s1:
            assert s1[key] == pytest.approx(s2[key], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            geometry_report([], [], np.empty((0, 2)))


class TestSeparability:
    def test_identical_centroids_zero(self):
        same = [[1.0, 1.0], [0.0, 0.0]]
        rep = geometry_report(*embs_from({SM: same, M: same}))
        assert separability(rep)[(SM.value, M.value)] == pytest.approx(0.0)

    def test_hand_value(self):
        # intra mean squared = 1 for both classes, inter squared = 16
        sm = [[0.0, 1.0], [0.0, -1.0]]
        m = [[4.0, 1.0], [4.0, -1.0]]
        rep = geometry_report(*embs_from({SM: sm, M: m}))
        assert inter_sq(rep)[(SM.value, M.value)] == pytest.approx(16.0)
        assert intra_sq(rep)[SM.value] == pytest.approx(1.0)
        assert separability(rep)[(SM.value, M.value)] == pytest.approx(2.0, abs=1e-9)

    def test_tight_clusters_grow_unbounded(self):
        sm = [[0.0, 0.0], [0.0, 1e-9]]
        m = [[4.0, 0.0], [4.0, 1e-9]]
        rep = geometry_report(*embs_from({SM: sm, M: m}))
        assert separability(rep)[(SM.value, M.value)] > 1e6


class TestReport:
    def test_report_structure(self):
        rng = keyed_rng("rep", 2)
        embs = embs_from({lab: rng.normal(i, 0.5, (4, 3))
                          for i, lab in enumerate(LABELS)})
        rep = geometry_report(*embs)
        assert {p["pair"][0] for p in rep["inter_class"]}
        assert "toolkit-defined" in rep["separability"]["definition"]
        for item in rep["inter_class"]:
            assert item["distance"] == pytest.approx(np.sqrt(item["distance_sq"]))
