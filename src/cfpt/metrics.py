"""Evaluation battery: ROC/AUC, McNemar paired test, Kaplan-Meier curves,
and the quadrant analysis of predicted progression times.

The quadrant ("region") analysis splits the scatter of predicted CFPT
``P`` against an observed time axis ``X`` at a threshold ``T``:

* region 1: ``P > T`` and ``X > T``
* region 2: ``P <= T`` and ``X > T``
* region 3: ``P <= T`` and ``X <= T``
* region 4: ``P > T`` and ``X <= T``

For scans of cancer patients ``X`` is the defined CFPT; for scans of
never-diagnosed patients it is the time to that patient's last scan.
"Recall" at a threshold is the region-3 fraction of all cancer-patient
scans (not a conditional recall), and "non-cancer beyond threshold" is
the region-1 + region-4 fraction of non-cancer scans, which by
construction equals the plain fraction of those scans with ``P > T``.
"""

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

# the default threshold grid (years) of the region analysis and threshold table
THRESHOLDS = (1.0, 2.0, 3.0, 4.0, 5.0)
# McNemar compares the classifiers' correctness at this probability
OPERATING_POINT = 0.5


@dataclass(frozen=True)
class RegionRatios:
    """Fractions of plotted scans in each quadrant at one threshold."""

    threshold: float
    r1: float
    r2: float
    r3: float
    r4: float


@dataclass(frozen=True)
class ThresholdRow:
    threshold: float
    recall: float
    noncancer_beyond: float


@dataclass(frozen=True)
class KMCurve:
    """Product-limit survival estimate.

    ``times`` holds the distinct observed event times in increasing order
    (censoring-only times do not create steps); ``survival[i]`` is the
    estimate just after ``times[i]``. Before the first event the estimate
    is 1.
    """

    times: tuple[float, ...]
    survival: tuple[float, ...]
    n_at_risk: tuple[int, ...]
    n_events: tuple[int, ...]

    def survival_at(self, t: float) -> float:
        """Value of the step function at time ``t``."""
        idx = np.searchsorted(np.asarray(self.times), t, side="right")
        return 1.0 if idx == 0 else self.survival[idx - 1]


@dataclass(frozen=True)
class McNemarResult:
    """Discordant-pair counts and the paired-test p-value.

    ``b`` counts samples only classifier A got right, ``c`` those only B
    got right. ``method`` records which branch produced the p-value:
    ``"exact-binomial"`` for small discordant counts (b + c < 25),
    ``"chi-square"`` otherwise, or ``"undefined"`` when there are no
    discordant pairs at all (p-value 1 by convention).
    """

    b: int
    c: int
    statistic: float
    p_value: float
    method: str


def roc_auc(scores, labels):
    """AUC by the rank (Mann-Whitney) method plus the ROC curve.

    Tied scores contribute 1/2 per positive-negative pair. The curve is an
    ``(m, 3)`` float64 array of ``threshold, fpr, tpr`` rows: row 0 is the
    ``(inf, 0, 0)`` anchor, then one row per distinct score, highest first.
    A NaN score makes the AUC NaN. Raises on single-class input, where the
    AUC is undefined.
    """
    s = np.asarray(scores, dtype=np.float64)
    lab = np.asarray(labels)
    if s.shape != lab.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d and equally long")
    if not np.all((lab == 0) | (lab == 1)):
        raise ValueError("labels must be 0 or 1")
    n_pos = int(np.sum(lab == 1))
    n_neg = int(np.sum(lab == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative")

    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    # one row per run of equal scores: counts at the run's last index, the
    # threshold (and so the sign of a 0.0/-0.0 tie) from its first
    last = np.flatnonzero(np.append(s_desc[1:] != s_desc[:-1], True))
    first = np.append(0, last[:-1] + 1)
    tp = np.cumsum(lab[order] == 1)[last]
    points = np.empty((len(last) + 1, 3))
    points[0] = (np.inf, 0.0, 0.0)
    points[1:, 0] = s_desc[first]
    points[1:, 1] = (last + 1 - tp) / n_neg
    points[1:, 2] = tp / n_pos

    if np.isnan(s_desc[-1]):  # argsort puts NaN last; it has no rank
        auc = np.nan
    else:
        # a run covers ascending ranks n - last .. n - first, midrank
        # n - (first + last) / 2; every term and partial sum is a
        # half-integer, so the rank sum is exact in any order
        pos_in_run = np.diff(tp, prepend=0)
        rank_sum = pos_in_run @ (len(s) - (first + last) / 2.0)
        auc = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc), points


def mcnemar(correct_a, correct_b) -> McNemarResult:
    """Paired comparison of two classifiers from per-sample correctness.

    Uses the continuity-corrected chi-square statistic
    ``(|b - c| - 1)^2 / (b + c)`` with one degree of freedom; when the
    discordant count ``b + c`` is below 25 the p-value comes from the
    exact two-sided binomial test instead (doubled smaller tail of
    Binomial(b + c, 1/2), capped at 1).
    """
    a = np.asarray(correct_a)
    bb = np.asarray(correct_b)
    if a.shape != bb.shape or a.ndim != 1 or len(a) < 1:
        raise ValueError("correctness vectors must be 1-d, equal length, non-empty")
    if not np.all((a == 0) | (a == 1)) or not np.all((bb == 0) | (bb == 1)):
        raise ValueError("correctness vectors must be binary")

    b = int(np.sum((a == 1) & (bb == 0)))
    c = int(np.sum((a == 0) & (bb == 1)))
    n = b + c
    if n == 0:
        return McNemarResult(0, 0, float("nan"), 1.0, "undefined")
    statistic = (abs(b - c) - 1) ** 2 / n
    if n < 25:
        p = min(1.0, 2 * sum(math.comb(n, i) for i in range(min(b, c) + 1)) / 2**n)
        return McNemarResult(b, c, statistic, p, "exact-binomial")
    p = math.erfc(math.sqrt(statistic / 2.0))  # chi-square sf, 1 dof
    return McNemarResult(b, c, statistic, p, "chi-square")


def km_estimate(times, event) -> KMCurve:
    """Kaplan-Meier product-limit estimator for right-censored samples.

    ``event[i] = 1`` marks an observed event at ``times[i]``; 0 marks
    right-censoring. At each distinct event time ``t`` with ``d`` events
    among ``n`` subjects still at risk the estimate multiplies by
    ``1 - d/n``. Subjects censored at ``t`` are still counted at risk
    there (events before censorings on ties) and leave the risk set
    afterwards.
    """
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(event)
    if t.shape != e.shape or t.ndim != 1 or len(t) < 1:
        raise ValueError("times and event must be 1-d, equal length, non-empty")
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    if not np.all((e == 0) | (e == 1)):
        raise ValueError("event must be 0 or 1")

    order = np.argsort(t, kind="stable")
    t = t[order]
    e = e[order].astype(np.int64)
    # one group per run of tied times, at which len(t) - start subjects are at risk
    starts = np.flatnonzero(np.append(True, t[1:] != t[:-1]))
    d = np.add.reduceat(e, starts)
    at_risk = len(t) - starts
    steps = d > 0
    d, at_risk = d[steps], at_risk[steps]
    survival = np.multiply.accumulate(1.0 - d / at_risk)
    return KMCurve(
        tuple(t[starts[steps]].tolist()), tuple(survival.tolist()),
        tuple(at_risk.tolist()), tuple(d.tolist()),
    )


def region_ratios(points, threshold: float) -> RegionRatios:
    """Quadrant fractions of (predicted time, observed time) pairs.

    Points exactly on the threshold fall on the ``<=`` side on both axes.
    The four fractions partition the input: they sum to 1.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise ValueError("region_ratios of an empty point set is undefined")
    pts = pts.reshape(-1, 2)
    pred = pts[:, 0]
    x = pts[:, 1]
    n = len(pts)
    t = float(threshold)
    r1 = np.sum((pred > t) & (x > t)) / n
    r2 = np.sum((pred <= t) & (x > t)) / n
    r3 = np.sum((pred <= t) & (x <= t)) / n
    r4 = np.sum((pred > t) & (x <= t)) / n
    return RegionRatios(t, float(r1), float(r2), float(r3), float(r4))


def threshold_table(cancer_points, noncancer_points, thresholds) -> list[ThresholdRow]:
    """Recall / non-cancer-beyond-threshold rows for a threshold sweep.

    Recall(T) is the region-3 fraction of the cancer-patient scatter and is
    non-decreasing in T; noncancer_beyond(T) is region 1 + region 4 of the
    non-cancer scatter (equivalently the fraction with predicted time
    above T) and is non-increasing.
    """
    if len(np.atleast_1d(np.asarray(cancer_points, dtype=np.float64))) == 0:
        raise ValueError("cancer_points must be non-empty")
    noncancer_pred = np.asarray(noncancer_points, dtype=np.float64).reshape(-1, 2)[:, 0]
    if len(noncancer_pred) == 0:
        raise ValueError("noncancer_points must be non-empty")
    rows = []
    for t in thresholds:
        rc = region_ratios(cancer_points, t)
        # single division, not r1 + r4: the identity with frac(pred > t)
        # then holds bit for bit and the column is exactly monotone
        beyond = float(np.sum(noncancer_pred > float(t)) / len(noncancer_pred))
        rows.append(ThresholdRow(float(t), rc.r3, beyond))
    return rows


@dataclass
class EvalReport:
    """Everything the evaluation battery produces for one prediction set."""

    n_scans: int
    n_patients: int
    n_cancer_patients: int
    n_malignant_scans: int
    auc: float
    roc_points: np.ndarray  # (m, 3) rows of threshold, fpr, tpr; see roc_auc
    cancer_points: np.ndarray  # (t_pred, defined CFPT) per cancer-patient scan
    noncancer_points: np.ndarray  # (t_pred, time to last scan) per non-cancer scan
    regions_cancer: list[RegionRatios]
    regions_noncancer: list[RegionRatios]
    threshold_rows: list[ThresholdRow]
    km: KMCurve
    n_km_excluded: int  # post-biopsy scans (negative t_d) left out of the KM fit
    mcnemar_result: McNemarResult | None = None

    def to_text(self) -> str:
        """Render the report as one structured plain-text document."""
        lines = []
        lines.append("== cohort ==")
        lines.append(f"scans: {self.n_scans}")
        lines.append(f"patients: {self.n_patients}")
        lines.append(f"cancer patients: {self.n_cancer_patients}")
        lines.append(f"malignant scans: {self.n_malignant_scans}")
        lines.append("")
        lines.append("== classification ==")
        lines.append(f"auc: {self.auc:.6f}")
        lines.append("")
        lines.append("== threshold table ==")
        lines.append("threshold,recall,noncancer_beyond")
        for row in self.threshold_rows:
            lines.append(f"{row.threshold:g},{row.recall:.6f},{row.noncancer_beyond:.6f}")
        lines.append("")
        lines.append("== region ratios (cancer-patient scans) ==")
        lines.append("threshold,r1,r2,r3,r4")
        for r in self.regions_cancer:
            lines.append(f"{r.threshold:g},{r.r1:.6f},{r.r2:.6f},{r.r3:.6f},{r.r4:.6f}")
        lines.append("")
        lines.append("== region ratios (non-cancer scans) ==")
        lines.append("threshold,r1,r2,r3,r4")
        for r in self.regions_noncancer:
            lines.append(f"{r.threshold:g},{r.r1:.6f},{r.r2:.6f},{r.r3:.6f},{r.r4:.6f}")
        lines.append("")
        lines.append("== kaplan-meier (scan-level defined CFPT) ==")
        if self.n_km_excluded:
            lines.append(f"excluded post-biopsy scans: {self.n_km_excluded}")
        lines.append("time,survival,at_risk,events")
        for t, s, n, d in zip(self.km.times, self.km.survival, self.km.n_at_risk, self.km.n_events):
            lines.append(f"{t:g},{s:.6f},{n},{d}")
        if self.mcnemar_result is not None:
            m = self.mcnemar_result
            lines.append("")
            lines.append(f"== mcnemar (operating point {OPERATING_POINT:g}) ==")
            lines.append(f"b (only A correct): {m.b}")
            lines.append(f"c (only B correct): {m.c}")
            lines.append(f"statistic: {m.statistic:.6f}")
            lines.append(f"p_value: {m.p_value:.6g}")
            lines.append(f"method: {m.method}")
        lines.append("")
        return "\n".join(lines)


def _rows_by_scan_id(predictions, labels) -> np.ndarray:
    """For each label row, the index of the prediction row of its scan."""
    row = dict(zip(predictions.scan_ids, range(len(predictions))))
    if len(row) != len(predictions):
        raise ValueError("duplicate scan_id in predictions")
    label_ids = set(labels.scan_ids)
    if len(label_ids) != len(labels):
        raise ValueError("duplicate scan_id in labels")
    if label_ids != row.keys():
        missing = sorted(label_ids - row.keys())
        extra = sorted(row.keys() - label_ids)
        raise ValueError(
            "prediction/label scan_id mismatch: "
            f"missing={missing[:5]}{'...' if len(missing) > 5 else ''} "
            f"extra={extra[:5]}{'...' if len(extra) > 5 else ''}"
        )
    return np.fromiter(map(row.__getitem__, labels.scan_ids), np.intp, len(labels))


def evaluate(
    predictions,
    labels,
    thresholds=THRESHOLDS,
    predictions_b=None,
) -> EvalReport:
    """Assemble the full evaluation report over pooled predictions.

    ``predictions`` is a :class:`cfpt.model.PredictionTable` and ``labels``
    a :class:`cfpt.labels.LabelTable`; rows are matched by ``scan_id``, in
    any order, and each labeled scan must be predicted exactly once.
    ``predictions_b``, when given, is a second prediction table over the
    same scans; the two are compared with McNemar's test on correctness at
    ``OPERATING_POINT``.

    The Kaplan-Meier fit treats each scan as one observation of remaining
    time to diagnosis: time ``t_d`` with event ``p``. Post-biopsy scans
    (negative ``t_d``) are not such observations and are excluded (their
    count is reported).
    """
    matched = _rows_by_scan_id(predictions, labels)
    y, p, t_d = labels.y, labels.p, labels.t_d
    y_hat = predictions.y_hat[matched]
    t_pred = predictions.t_pred[matched]

    auc, roc_points = roc_auc(y_hat, y)

    cancer_mask = p == 1
    cancer_points = np.column_stack([t_pred[cancer_mask], t_d[cancer_mask]])
    # non-cancer t_d is time-to-last-scan + 1, >= 1 in any labels file read
    noncancer_points = np.column_stack(
        [t_pred[~cancer_mask], t_d[~cancer_mask] - 1.0]
    )
    regions_cancer = [region_ratios(cancer_points, t) for t in thresholds]
    regions_noncancer = [region_ratios(noncancer_points, t) for t in thresholds]
    rows = threshold_table(cancer_points, noncancer_points, thresholds)

    km_mask = t_d >= 0
    km = km_estimate(t_d[km_mask], p[km_mask])

    result = None
    if predictions_b is not None:
        y_hat_b = predictions_b.y_hat[_rows_by_scan_id(predictions_b, labels)]
        correct_a = ((y_hat >= OPERATING_POINT).astype(int) == y).astype(int)
        correct_b = ((y_hat_b >= OPERATING_POINT).astype(int) == y).astype(int)
        result = mcnemar(correct_a, correct_b)

    return EvalReport(
        n_scans=len(labels),
        n_patients=len(set(labels.patient_ids)),
        n_cancer_patients=len(set(compress(labels.patient_ids, (p == 1).tolist()))),
        n_malignant_scans=int(np.sum(y == 1)),
        auc=auc,
        roc_points=roc_points,
        cancer_points=cancer_points,
        noncancer_points=noncancer_points,
        regions_cancer=regions_cancer,
        regions_noncancer=regions_noncancer,
        threshold_rows=rows,
        km=km,
        n_km_excluded=int(np.sum(~km_mask)),
        mcnemar_result=result,
    )
