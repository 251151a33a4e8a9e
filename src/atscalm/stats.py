"""Group statistics for the calmness analysis.

One-way ANOVA, Welch two-sample t-tests with Satterthwaite degrees of
freedom, the Student-t and F CDFs via a continued-fraction regularized
incomplete beta, the lowest-mean "calmest class" rule, and the per-feature
report with a majority-vote verdict.

Conventions: sample variance (1/(n-1)) in every test statistic; pairwise
tests are always computed, with the ANOVA p < 0.05 gate affecting only the
wording of the "result" column; ties in the calmest rule and in the vote
are flagged and broken toward NormalSilence, the baseline condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import LABELS, ClassLabel
from .util import PipelineError, json_sanitize, write_csv, write_json

ALPHA = 0.05

# Display/report order for the three conditions.
ORDER = (ClassLabel.SPIRITUAL_MEDITATION, ClassLabel.NORMAL_SILENCE, ClassLabel.MUSIC)
CODES = {ClassLabel.SPIRITUAL_MEDITATION: "SM",
         ClassLabel.NORMAL_SILENCE: "NS",
         ClassLabel.MUSIC: "M"}
CODE_TO_LABEL = {v: k for k, v in CODES.items()}
PAIRS = (("SM", "M"), ("SM", "NS"), ("M", "NS"))

_BETACF_MAX_ITER = 300
_BETACF_TOL = 1e-12


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise PipelineError(f"incomplete beta did not converge after {_BETACF_MAX_ITER} iterations "
                        f"(a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise PipelineError("betainc needs a, b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(x: float, df: float) -> float:
    """Student-t cumulative distribution."""
    if df <= 0:
        raise PipelineError("t_cdf needs df > 0")
    if x == 0.0:
        return 0.5
    ib = betainc(df / 2.0, 0.5, df / (df + x * x))
    return 1.0 - 0.5 * ib if x > 0 else 0.5 * ib


def f_cdf(x: float, d1: float, d2: float) -> float:
    """F-distribution cumulative distribution."""
    if d1 <= 0 or d2 <= 0:
        raise PipelineError("f_cdf needs d1, d2 > 0")
    if x <= 0.0:
        return 0.0
    return betainc(d1 / 2.0, d2 / 2.0, d1 * x / (d1 * x + d2))


def anova_oneway(groups) -> tuple[float, float]:
    """(F, p) with df (k-1, N-k).

    Raises on a degenerate layout: any group smaller than 2 or zero
    within-group variance everywhere.
    """
    groups = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(groups) < 2:
        raise PipelineError("ANOVA needs at least two groups")
    ns = [g.size for g in groups]
    if any(n < 2 for n in ns):
        raise PipelineError(f"every ANOVA group needs n >= 2, got sizes {ns}")
    n_total = sum(ns)
    k = len(groups)
    grand = sum(g.sum() for g in groups) / n_total
    ss_between = sum(n * (g.mean() - grand) ** 2 for n, g in zip(ns, groups))
    ss_within = sum(((g - g.mean()) ** 2).sum() for g in groups)
    df_b, df_w = k - 1, n_total - k
    ms_within = ss_within / df_w
    if ms_within == 0.0:
        raise PipelineError("degenerate ANOVA: zero within-group variance in every group")
    f_stat = (ss_between / df_b) / ms_within
    return float(f_stat), float(1.0 - f_cdf(f_stat, df_b, df_w))


def welch_t(a, b) -> tuple[float, float, float]:
    """(t, df, p) for the unequal-variance two-sample test.

    t = (mean_a - mean_b)/sqrt(s_a^2/n_a + s_b^2/n_b) with sample variances;
    df by Welch-Satterthwaite; two-sided p. Zero pooled standard error with
    equal means is undefined and raises; with unequal means the statistic
    is infinite and p = 0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise PipelineError("welch_t needs n >= 2 per sample")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = a.size, b.size
    se_sq = va / na + vb / nb
    diff = a.mean() - b.mean()
    if se_sq == 0.0:
        if diff == 0.0:
            raise PipelineError("welch_t undefined: zero variance in both samples with equal means")
        return math.copysign(math.inf, diff), math.nan, 0.0
    t_stat = diff / math.sqrt(se_sq)
    df = se_sq ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * (1.0 - t_cdf(abs(t_stat), df))
    return float(t_stat), float(df), float(min(max(p, 0.0), 1.0))


def calmest_per_feature(means: dict[str, float]) -> tuple[str, bool]:
    """Code of the lowest mean; ties are flagged and resolved toward NS."""
    if set(means) != {"SM", "NS", "M"}:
        raise PipelineError(f"means must be keyed by SM/NS/M, got {sorted(means)}")
    if not all(np.isfinite(v) for v in means.values()):
        raise PipelineError("means must be finite")
    low = min(means.values())
    winners = [c for c in ("SM", "NS", "M") if means[c] == low]
    if len(winners) == 1:
        return winners[0], False
    return ("NS" if "NS" in winners else winners[0]), True


def majority_vote(labels: list[str]) -> tuple[dict[str, int], str, bool]:
    """(tally, winner, tie flag); vote ties resolve toward NS."""
    if not labels:
        raise PipelineError("majority_vote needs at least one label")
    tally = {c: 0 for c in ("SM", "NS", "M")}
    for lab in labels:
        if lab not in tally:
            raise PipelineError(f"unknown class code {lab!r}")
        tally[lab] += 1
    top = max(tally.values())
    winners = [c for c in ("SM", "NS", "M") if tally[c] == top]
    if len(winners) == 1:
        return tally, winners[0], False
    return tally, ("NS" if "NS" in winners else winners[0]), True


@dataclass
class FeatureGroupSummary:
    feature: str
    means: dict[str, float]
    variances: dict[str, float]
    ns: dict[str, int]
    anova_f: float | None
    anova_p: float | None
    pairwise: dict[tuple[str, str], tuple[float, float, float]]  # (t, df, p)
    comparison: str
    calmest: str
    calmest_tie: bool
    result: str


@dataclass
class CalmnessReport:
    rows: list[FeatureGroupSummary]
    tally: dict[str, int]
    calmest_overall: str
    vote_tie: bool


def _comparison_string(means: dict[str, float]) -> str:
    def op(u, v):
        return "<" if u < v else (">" if u > v else "=")

    return f"SM {op(means['SM'], means['NS'])} NS {op(means['NS'], means['M'])} M"


def _result_string(anova_p: float | None, pairwise) -> str:
    if anova_p is None:
        return "degenerate"
    if anova_p >= ALPHA:
        return "No diff"
    sig = [f"{a} vs {b} diff" for (a, b), (_, _, p) in pairwise.items()
           if p is not None and p < ALPHA]
    return ", ".join(sig) if sig else "No diff"


def calmness_report(groups: dict[ClassLabel, np.ndarray],
                    feature_names: list[str]) -> CalmnessReport:
    """Per-feature summaries over per-class feature matrices (n_i x n_features).

    Degenerate features (zero variance everywhere) keep their means and
    calmest label but carry null test statistics.
    """
    for lab in ORDER:
        if lab not in groups:
            raise PipelineError(f"missing class {lab.value}")
        if groups[lab].ndim != 2 or groups[lab].shape[1] != len(feature_names):
            raise PipelineError(f"group {lab.value} must be (n, {len(feature_names)})")
        if groups[lab].shape[0] < 2:
            raise PipelineError(f"class {lab.value} needs >= 2 samples")
    rows = []
    for j, name in enumerate(feature_names):
        cols = {CODES[lab]: groups[lab][:, j] for lab in ORDER}
        means = {c: float(v.mean()) for c, v in cols.items()}
        variances = {c: float(v.var(ddof=1)) for c, v in cols.items()}
        ns = {c: int(v.size) for c, v in cols.items()}
        try:
            anova_f, anova_p = anova_oneway([cols["SM"], cols["NS"], cols["M"]])
        except PipelineError:
            anova_f = anova_p = None
        pairwise = {}
        for a, b in PAIRS:
            try:
                pairwise[(a, b)] = welch_t(cols[a], cols[b])
            except PipelineError:
                pairwise[(a, b)] = (None, None, None)
        calmest, tie = calmest_per_feature(means)
        rows.append(FeatureGroupSummary(
            feature=name,
            means=means,
            variances=variances,
            ns=ns,
            anova_f=anova_f,
            anova_p=anova_p,
            pairwise=pairwise,
            comparison=_comparison_string(means),
            calmest=calmest,
            calmest_tie=tie,
            result=_result_string(anova_p, pairwise),
        ))
    tally, winner, vote_tie = majority_vote([r.calmest for r in rows])
    return CalmnessReport(rows=rows, tally=tally, calmest_overall=winner, vote_tie=vote_tie)


def report_to_dict(report: CalmnessReport) -> dict:
    return {
        "features": [
            {
                "feature": r.feature,
                "means": r.means,
                "variances": r.variances,
                "n": r.ns,
                "anova_f": r.anova_f,
                "anova_p": r.anova_p,
                "pairwise": {
                    f"{a}_vs_{b}": {"t": t, "df": df, "p": p}
                    for (a, b), (t, df, p) in r.pairwise.items()
                },
                "comparison": r.comparison,
                "calmest": r.calmest,
                "calmest_tie": r.calmest_tie,
                "result": r.result,
            }
            for r in report.rows
        ],
        "vote": {
            "tally": report.tally,
            "calmest_overall": report.calmest_overall,
            "tie": report.vote_tie,
        },
    }


CSV_HEADER = ["feature", "mean_SM", "mean_NS", "mean_M", "comparison", "calmest",
              "anova_p", "p_SM_M", "p_SM_NS", "p_M_NS", "result"]


def write_calmness_csv(report: CalmnessReport, path: str) -> None:
    def cell(v):
        return "" if v is None else v

    rows = []
    for r in report.rows:
        rows.append([
            r.feature, r.means["SM"], r.means["NS"], r.means["M"], r.comparison,
            r.calmest, cell(r.anova_p),
            cell(r.pairwise[("SM", "M")][2]),
            cell(r.pairwise[("SM", "NS")][2]),
            cell(r.pairwise[("M", "NS")][2]),
            r.result,
        ])
    write_csv(path, CSV_HEADER, rows)


def write_calmness_json(report: CalmnessReport, path: str) -> None:
    write_json(path, json_sanitize(report_to_dict(report)))
