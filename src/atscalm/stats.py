"""Group statistics for the calmness analysis.

One-way ANOVA, Welch two-sample t-tests with Satterthwaite degrees of
freedom, their p-values as upper tails of a continued-fraction regularized
incomplete beta, the lowest-mean "calmest class" rule, and
`calmness_report`, which returns the calmness document as it is written
to calmness.json: one summary per feature and a majority-vote verdict.

Conventions: sample variance (1/(n-1)) in every test statistic; pairwise
tests are always computed, with the ANOVA p < 0.05 gate affecting only the
wording of the "result" field; ties in the calmest rule and in the vote
are flagged and broken toward NormalSilence, the baseline condition.
"""

from __future__ import annotations

import math

import numpy as np

from .audio_io import ClassLabel
from .util import PipelineError

ALPHA = 0.05

# Display/report order for the three conditions.
ORDER = (ClassLabel.SPIRITUAL_MEDITATION, ClassLabel.NORMAL_SILENCE, ClassLabel.MUSIC)
CODES = {ClassLabel.SPIRITUAL_MEDITATION: "SM",
         ClassLabel.NORMAL_SILENCE: "NS",
         ClassLabel.MUSIC: "M"}
PAIRS = (("SM", "M"), ("SM", "NS"), ("M", "NS"))

_BETACF_MAX_ITER = 300
_BETACF_TOL = 1e-12
_BETACF_TINY = 1e-300


def _clamp(v: float) -> float:
    """Lentz's guard: a value that would divide by (near) zero becomes tiny."""
    return _BETACF_TINY if abs(v) < _BETACF_TINY else v


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz); each
    iteration takes the even and then the odd coefficient."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 / _clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _clamp(1.0 + aa * d)
            c = _clamp(1.0 + aa / c)
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


def anova_oneway(groups) -> tuple[float, float]:
    """(F, p) with df (k-1, N-k); p is the F upper tail, taken straight from
    the incomplete beta so that it keeps its relative precision when small.

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
    return float(f_stat), float(betainc(df_w / 2.0, df_b / 2.0, df_w / (df_w + df_b * f_stat)))


def welch_t(a, b) -> tuple[float, float, float]:
    """(t, df, p) for the unequal-variance two-sample test.

    t = (mean_a - mean_b)/sqrt(s_a^2/n_a + s_b^2/n_b) with sample variances;
    df by Welch-Satterthwaite; the two-sided p = I_{df/(df+t^2)}(df/2, 1/2)
    comes straight from the incomplete beta. Zero pooled standard error
    with equal means is undefined and raises; with unequal means the
    statistic is infinite and p = 0.
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
    p = betainc(df / 2.0, 0.5, df / (df + t_stat * t_stat))
    return float(t_stat), float(df), float(p)


def _pick(scores: dict[str, float], best: float) -> tuple[str, bool]:
    """The code whose score is ``best``; a tie is flagged and resolved toward NS."""
    winners = [c for c in ("SM", "NS", "M") if scores[c] == best]
    return ("NS" if "NS" in winners else winners[0]), len(winners) > 1


def calmest_per_feature(means: dict[str, float]) -> tuple[str, bool]:
    """Code of the lowest mean; ties are flagged and resolved toward NS."""
    if set(means) != {"SM", "NS", "M"}:
        raise PipelineError(f"means must be keyed by SM/NS/M, got {sorted(means)}")
    if not all(np.isfinite(v) for v in means.values()):
        raise PipelineError("means must be finite")
    return _pick(means, min(means.values()))


def majority_vote(labels: list[str]) -> tuple[dict[str, int], str, bool]:
    """(tally, winner, tie flag); vote ties resolve toward NS."""
    if not labels:
        raise PipelineError("majority_vote needs at least one label")
    tally = {c: 0 for c in ("SM", "NS", "M")}
    for lab in labels:
        if lab not in tally:
            raise PipelineError(f"unknown class code {lab!r}")
        tally[lab] += 1
    winner, tie = _pick(tally, max(tally.values()))
    return tally, winner, tie


def _comparison_string(means: dict[str, float]) -> str:
    def op(u, v):
        return "<" if u < v else (">" if u > v else "=")

    return f"SM {op(means['SM'], means['NS'])} NS {op(means['NS'], means['M'])} M"


def _result_string(anova_p: float | None, pairwise: dict[str, dict]) -> str:
    if anova_p is None:
        return "degenerate"
    if anova_p >= ALPHA:
        return "No diff"
    sig = [f"{key.replace('_', ' ')} diff" for key, test in pairwise.items()
           if test["p"] is not None and test["p"] < ALPHA]
    return ", ".join(sig) if sig else "No diff"


def calmness_report(groups: dict[ClassLabel, np.ndarray], feature_names: list[str]) -> dict:
    """The calmness document over per-class feature matrices (n_i x n_features):
    ``{"features": [one summary per feature], "vote": {...}}``.

    Degenerate features (zero variance everywhere) keep their means and
    calmest label but carry null test statistics.
    """
    for lab in ORDER:
        if lab not in groups:
            raise PipelineError(f"missing class {lab.value}")
        if groups[lab].ndim != 2 or groups[lab].shape[1] != len(feature_names):
            raise PipelineError(f"group {lab.value} must be (n, {len(feature_names)})")
        if groups[lab].shape[0] < 2:
            raise PipelineError(f"class {lab.value} needs >= 2 rows, got {groups[lab].shape[0]}")
    rows = []
    for j, name in enumerate(feature_names):
        cols = {CODES[lab]: groups[lab][:, j] for lab in ORDER}
        means = {c: float(v.mean()) for c, v in cols.items()}
        try:
            anova_f, anova_p = anova_oneway([cols["SM"], cols["NS"], cols["M"]])
        except PipelineError:
            anova_f = anova_p = None
        pairwise = {}
        for a, b in PAIRS:
            try:
                t, df, p = welch_t(cols[a], cols[b])
            except PipelineError:
                t = df = p = None
            pairwise[f"{a}_vs_{b}"] = {"t": t, "df": df, "p": p}
        calmest, tie = calmest_per_feature(means)
        rows.append({
            "feature": name,
            "means": means,
            "variances": {c: float(v.var(ddof=1)) for c, v in cols.items()},
            "n": {c: int(v.size) for c, v in cols.items()},
            "anova_f": anova_f,
            "anova_p": anova_p,
            "pairwise": pairwise,
            "comparison": _comparison_string(means),
            "calmest": calmest,
            "calmest_tie": tie,
            "result": _result_string(anova_p, pairwise),
        })
    tally, winner, tie = majority_vote([r["calmest"] for r in rows])
    return {
        "features": rows,
        "vote": {
            "tally": tally,
            "calmest_overall": winner,
            "tie": tie,
        },
    }

