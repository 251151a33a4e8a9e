import numpy as np
import pytest

from atscalm.audio_io import LABELS
from atscalm.embedding_eval import class_geometry, geometry_report, separability
from atscalm.encoder import Embedding
from atscalm.util import PipelineError, keyed_rng

SM, M, NS = LABELS


def embs_from(arrays_by_label):
    out = []
    for lab, arrs in arrays_by_label.items():
        for i, v in enumerate(arrs):
            out.append(Embedding(vec=np.asarray(v, float), clip_id=f"{lab.value}_{i}", label=lab))
    return out


class TestGeometry:
    def test_singletons(self):
        embs = embs_from({SM: [[1.0, 2.0]], M: [[3.0, 4.0]], NS: [[0.0, 0.0]]})
        geom = class_geometry(embs)
        assert np.array_equal(geom.centroids[SM], [1.0, 2.0])
        assert all(v == 0.0 for v in geom.intra_sq_mean.values())

    def test_three_four_five_squared(self):
        embs = embs_from({SM: [[0.0, 0.0]], M: [[3.0, 4.0]]})
        geom = class_geometry(embs)
        assert geom.inter_sq[(SM.value, M.value)] == pytest.approx(25.0)
        assert geometry_report(embs)["inter_class"][0]["distance"] == pytest.approx(5.0)

    def test_identical_classes_zero(self):
        same = [[1.0, 1.0], [2.0, 2.0]]
        embs = embs_from({SM: same, M: same})
        geom = class_geometry(embs)
        assert geom.inter_sq[(SM.value, M.value)] == pytest.approx(0.0)

    def test_permutation_invariance(self):
        rng = keyed_rng("perm", 0)
        embs = embs_from({lab: rng.normal(0, 1, (6, 4)) for lab in LABELS})
        geom1 = class_geometry(embs)
        geom2 = class_geometry(list(reversed(embs)))
        assert geom1.inter_sq == geom2.inter_sq
        assert geom1.intra_sq_mean == geom2.intra_sq_mean

    def test_translation_invariance(self):
        rng = keyed_rng("trans", 1)
        base = {lab: rng.normal(0, 1, (5, 3)) for lab in LABELS}
        shift = np.array([10.0, -4.0, 2.5])
        geom1 = class_geometry(embs_from(base))
        geom2 = class_geometry(embs_from({lab: v + shift for lab, v in base.items()}))
        for key in geom1.inter_sq:
            assert geom1.inter_sq[key] == pytest.approx(geom2.inter_sq[key], abs=1e-9)
        for key in geom1.intra_sq_mean:
            assert geom1.intra_sq_mean[key] == pytest.approx(geom2.intra_sq_mean[key], abs=1e-9)
        s1, s2 = separability(geom1), separability(geom2)
        for key in s1:
            assert s1[key] == pytest.approx(s2[key], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            class_geometry([])


class TestSeparability:
    def test_identical_centroids_zero(self):
        same = [[1.0, 1.0], [0.0, 0.0]]
        geom = class_geometry(embs_from({SM: same, M: same}))
        assert separability(geom)[(SM.value, M.value)] == pytest.approx(0.0)

    def test_hand_value(self):
        # intra mean squared = 1 for both classes, inter squared = 16
        sm = [[0.0, 1.0], [0.0, -1.0]]
        m = [[4.0, 1.0], [4.0, -1.0]]
        geom = class_geometry(embs_from({SM: sm, M: m}))
        assert geom.inter_sq[(SM.value, M.value)] == pytest.approx(16.0)
        assert geom.intra_sq_mean[SM.value] == pytest.approx(1.0)
        assert separability(geom)[(SM.value, M.value)] == pytest.approx(2.0, abs=1e-9)

    def test_tight_clusters_grow_unbounded(self):
        sm = [[0.0, 0.0], [0.0, 1e-9]]
        m = [[4.0, 0.0], [4.0, 1e-9]]
        geom = class_geometry(embs_from({SM: sm, M: m}))
        assert separability(geom)[(SM.value, M.value)] > 1e6


class TestReport:
    def test_report_structure(self):
        rng = keyed_rng("rep", 2)
        embs = embs_from({lab: rng.normal(i, 0.5, (4, 3))
                          for i, lab in enumerate(LABELS)})
        rep = geometry_report(embs)
        assert {p["pair"][0] for p in rep["inter_class"]}
        assert "toolkit-defined" in rep["separability"]["definition"]
        for item in rep["inter_class"]:
            assert item["distance"] == pytest.approx(np.sqrt(item["distance_sq"]))
