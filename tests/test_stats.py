import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atscalm import stats
from atscalm.audio_io import LABELS, ClassLabel
from atscalm.util import PipelineError, keyed_rng, read_json, write_json

SM, M, NS = LABELS


def f_pdf(x, d1, d2):
    if x <= 0:
        return 0.0
    lg = math.lgamma
    log_c = (lg((d1 + d2) / 2) - lg(d1 / 2) - lg(d2 / 2)
             + (d1 / 2) * math.log(d1 / d2))
    log_pdf = (log_c + (d1 / 2 - 1) * math.log(x)
               - ((d1 + d2) / 2) * math.log(1 + d1 * x / d2))
    return math.exp(log_pdf)


def t_pdf(x, df):
    lg = math.lgamma
    log_c = lg((df + 1) / 2) - lg(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(log_c - ((df + 1) / 2) * math.log(1 + x * x / df))


def t_cdf(x, df):
    """Student-t CDF from `stats.betainc`, checked against quadrature below."""
    if x == 0.0:
        return 0.5
    ib = stats.betainc(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - 0.5 * ib if x > 0 else 0.5 * ib


def f_cdf(x, d1, d2):
    """F CDF from `stats.betainc`, checked against quadrature below."""
    return stats.betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))


def adaptive_simpson(f, a, b, tol=1e-11, depth=40):
    def simpson(a, b, fa, fm, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        flm, frm = f(lm), f(rm)
        left = simpson(a, m, fa, flm, fm)
        right = simpson(m, b, fm, frm, fb)
        if depth <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
                + rec(m, b, fm, frm, fb, right, tol / 2.0, depth - 1))

    m = (a + b) / 2.0
    fa, fm, fb = f(a), f(m), f(b)
    return rec(a, b, fa, fm, fb, simpson(a, b, fa, fm, fb), tol, depth)


class TestCdfs:
    def test_t_cdf_at_zero(self):
        for df in (1, 2.5, 10, 1000):
            assert t_cdf(0.0, df) == 0.5

    def test_t_cdf_normal_limit(self):
        assert abs(t_cdf(1.0, 1e6) - 0.8413447) < 1e-3

    def test_t_cdf_monotone(self):
        xs = np.linspace(-6, 6, 60)
        vals = [t_cdf(float(x), 7) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_t_cdf_vs_quadrature(self):
        rng = keyed_rng("tq", 0)
        for _ in range(10):
            df = float(rng.uniform(1.5, 40))
            x = float(rng.uniform(-4, 4))
            want = 0.5 + (adaptive_simpson(lambda u: t_pdf(u, df), 0.0, abs(x))
                          * (1 if x >= 0 else -1))
            assert abs(t_cdf(x, df) - want) < 1e-8

    def test_f_cdf_vs_quadrature_20_points(self):
        # d1 >= 2 keeps the density bounded at 0 so Simpson converges
        rng = keyed_rng("fq", 1)
        for _ in range(20):
            d1 = float(rng.uniform(2, 12))
            d2 = float(rng.uniform(2, 30))
            x = float(rng.uniform(0.05, 6.0))
            want = adaptive_simpson(lambda u: f_pdf(u, d1, d2), 0.0, x)
            assert abs(f_cdf(x, d1, d2) - want) < 1e-8

    def test_betainc_domain(self):
        assert stats.betainc(2.0, 3.0, 0.0) == 0.0
        assert stats.betainc(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(PipelineError):
            stats.betainc(0.0, 1.0, 0.5)


class TestAnova:
    def test_identical_groups(self):
        f, p = stats.anova_oneway([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert f == 0.0
        assert p == pytest.approx(1.0)

    def test_hand_example(self):
        f, p = stats.anova_oneway([[1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]])
        assert f == pytest.approx(2.40, abs=1e-12)
        assert p == pytest.approx(0.146, abs=1e-3)

    def test_translation_invariance(self):
        groups = [keyed_rng("an", i).normal(0, 1, 8) for i in range(3)]
        f1, p1 = stats.anova_oneway(groups)
        f2, p2 = stats.anova_oneway([g + 17.3 for g in groups])
        assert f1 == pytest.approx(f2, abs=1e-9)
        assert p1 == pytest.approx(p2, abs=1e-9)

    def test_scale_invariance(self):
        groups = [keyed_rng("as", i).normal(0, 1, 8) for i in range(3)]
        f1, _ = stats.anova_oneway(groups)
        f2, _ = stats.anova_oneway([5.0 * g for g in groups])
        assert f1 == pytest.approx(f2, rel=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(PipelineError):
            stats.anova_oneway([[1, 1, 1], [2, 2, 2]])

    def test_small_group_rejected(self):
        with pytest.raises(PipelineError):
            stats.anova_oneway([[1], [2, 3]])


class TestWelch:
    def test_identical_samples(self):
        t, df, p = stats.welch_t([1, 2, 3, 4], [1, 2, 3, 4])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_hand_example(self):
        t, df, p = stats.welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert t == pytest.approx(-1.0, abs=1e-12)
        assert df == pytest.approx(8.0, abs=1e-12)
        assert p == pytest.approx(0.3466, abs=1e-3)

    def test_antisymmetry(self):
        a = keyed_rng("w", 0).normal(0, 1, 9)
        b = keyed_rng("w", 1).normal(0.5, 2, 7)
        t_ab, _, p_ab = stats.welch_t(a, b)
        t_ba, _, p_ba = stats.welch_t(b, a)
        assert t_ab == pytest.approx(-t_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_zero_variance_equal_means_undefined(self):
        with pytest.raises(PipelineError):
            stats.welch_t([2, 2, 2], [2, 2, 2])

    def test_translation_and_scale(self):
        a = keyed_rng("wt", 0).normal(0, 1, 10)
        b = keyed_rng("wt", 1).normal(1, 1.5, 12)
        t1, df1, _ = stats.welch_t(a, b)
        t2, df2, _ = stats.welch_t(3 * a + 7, 3 * b + 7)
        assert t1 == pytest.approx(t2, abs=1e-9)
        assert df1 == pytest.approx(df2, abs=1e-9)


def _scipy_draws():
    """Three groups of unequal size and spread per draw, at eight effect
    sizes up to mean shifts of 8 and 16 sigma, where the ANOVA p falls to
    about 1e-29: p must keep its relative precision deep in the tail."""
    for shift in (0.0, 0.3, 0.6, 1.0, 1.5, 2.0, 4.0, 8.0):
        for seed in range(20):
            rng = keyed_rng("scipy", shift, seed)
            yield [rng.normal(m, s, n) for m, s, n in
                   ((0.0, 1.0, 12), (shift, 1.5, 15), (2 * shift, 0.7, 9))]


class TestScipyOracle:
    def test_anova_matches_f_oneway(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for groups in _scipy_draws():
            f, p = stats.anova_oneway(groups)
            want = scipy_stats.f_oneway(*groups)
            assert f == pytest.approx(want.statistic, rel=1e-12)
            assert p == pytest.approx(want.pvalue, rel=1e-12, abs=0)

    def test_welch_matches_ttest_ind_unequal_var(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for a, b, c in _scipy_draws():
            for x, y in ((a, b), (a, c), (b, c)):
                t, _, p = stats.welch_t(x, y)
                want = scipy_stats.ttest_ind(x, y, equal_var=False)
                assert t == pytest.approx(want.statistic, rel=1e-12)
                assert p == pytest.approx(want.pvalue, rel=1e-12, abs=0)


class TestCalmest:
    def test_table_rows(self):
        assert stats.calmest_per_feature(
            {"SM": -254.2791, "NS": -249.5712, "M": -245.2362}) == ("SM", False)
        assert stats.calmest_per_feature(
            {"SM": -3.0367, "NS": -2.5192, "M": -3.3189}) == ("M", False)

    def test_all_equal_tie_to_ns(self):
        label, tie = stats.calmest_per_feature({"SM": 1.0, "NS": 1.0, "M": 1.0})
        assert label == "NS" and tie

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.floats(-100, 100), st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-50, 50))
    def test_argmin_shift_invariance(self, a, b, c, shift):
        means = {"SM": a, "NS": b, "M": c}
        shifted = {k: v + shift for k, v in means.items()}
        assert stats.calmest_per_feature(means) == stats.calmest_per_feature(shifted)


class TestVote:
    def test_all_one_class(self):
        tally, winner, tie = stats.majority_vote(["SM"] * 4)
        assert tally == {"SM": 4, "NS": 0, "M": 0}
        assert winner == "SM" and not tie

    def test_tie_flagged(self):
        tally, winner, tie = stats.majority_vote(["SM"] * 12 + ["NS"] * 12 + ["M"])
        assert tie and winner == "NS"

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            stats.majority_vote([])


class TestCalmnessReport:
    def _groups(self, shift_c=0.0, n=24, seed=0):
        rng = keyed_rng("rep", seed)
        base = rng.normal(0, 1.0, (3, 4))
        a = base[None, 0] + rng.normal(0, 1.0, (n, 4))
        b = base[None, 0] + rng.normal(0, 1.0, (n, 4))
        c = base[None, 0] + shift_c + rng.normal(0, 1.0, (n, 4))
        return {SM: a, NS: b, M: c}

    def test_constructed_ground_truth(self):
        groups = self._groups(shift_c=10.0)
        report = stats.calmness_report(groups, [f"f{i}" for i in range(4)])
        for row in report["features"]:
            assert row["anova_p"] < 0.001
            assert row["pairwise"]["SM_vs_NS"]["p"] > 0.05
            assert row["calmest"] != "M"       # M shifted upward everywhere

    def test_single_feature_vote(self):
        groups = {lab: keyed_rng("sf", i).normal(i, 1, (10, 1))
                  for i, lab in enumerate([SM, NS, M])}
        report = stats.calmness_report(groups, ["only"])
        assert len(report["features"]) == 1
        assert report["vote"]["calmest_overall"] == report["features"][0]["calmest"]
        assert sum(report["vote"]["tally"].values()) == 1

    def test_type_i_error_control(self):
        flags = 0
        total = 0
        for rep in range(20):
            rng = keyed_rng("mc", rep)
            groups = {lab: rng.normal(0, 1, (20, 25)) for lab in LABELS}
            report = stats.calmness_report(groups, [f"f{i}" for i in range(25)])
            flags += sum(1 for r in report["features"] if r["anova_p"] is not None
                         and r["anova_p"] < 0.05)
            total += len(report["features"])
        assert flags / total <= 0.15

    def test_degenerate_feature_survives(self):
        groups = self._groups()
        for lab in groups:
            groups[lab] = np.concatenate([groups[lab], np.full((groups[lab].shape[0], 1), 5.0)], axis=1)
        report = stats.calmness_report(groups, [f"f{i}" for i in range(5)])
        degen = report["features"][-1]
        assert degen["anova_p"] is None
        assert degen["result"] == "degenerate"
        assert degen["calmest"] in ("SM", "NS", "M")

    def test_comparison_strings(self):
        groups = {
            SM: np.tile([1.0, 5.0], (5, 1)) + keyed_rng("c", 0).normal(0, 0.01, (5, 2)),
            NS: np.tile([2.0, 3.0], (5, 1)) + keyed_rng("c", 1).normal(0, 0.01, (5, 2)),
            M: np.tile([3.0, 4.0], (5, 1)) + keyed_rng("c", 2).normal(0, 0.01, (5, 2)),
        }
        report = stats.calmness_report(groups, ["up", "vee"])
        assert report["features"][0]["comparison"] == "SM < NS < M"
        assert report["features"][1]["comparison"] == "SM > NS < M"

    def test_json_round_trip(self, tmp_path):
        groups = self._groups(shift_c=3.0)
        report = stats.calmness_report(groups, [f"f{i}" for i in range(4)])
        json_path = str(tmp_path / "calm.json")
        write_json(json_path, report)  # as the calmness command writes it
        data = read_json(json_path)
        assert len(data["features"]) == 4
        assert data["vote"]["tally"] == report["vote"]["tally"]
