"""Per-trial performance metrics and their Monte-Carlo aggregates.

:func:`trial_records` is the one place that scores a trial: the relative
power bias ``(gamma_hat - gamma) / gamma``, the power NMSE (its square) and
the waveform NMSE ``sum |s_hat - s|^2 / sum |s|^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DomainError, InsufficientTrials

__all__ = [
    "METHOD_ORDER",
    "TrialRecord",
    "AggregateRecord",
    "mean_abs_sq",
    "trial_records",
    "aggregate",
]

# Canonical method ordering for aggregates and result files.
METHOD_ORDER = (
    "CB",
    "Capon",
    "MMSE",
    "CaponPlus",
    "Debiased",
    "CBTheory",
    "CaponTheory",
    "MMSETheory",
    "CaponPlusTheory",
)


@dataclass(frozen=True)
class TrialRecord:
    """Metrics of one method in one Monte-Carlo trial."""

    method: str
    trial_index: int
    rel_bias_term: float
    se_nmse: float
    sp_nmse: float
    alpha_used: float

    def __post_init__(self):
        vals = (self.rel_bias_term, self.se_nmse, self.sp_nmse, self.alpha_used)
        if not all(math.isfinite(v) for v in vals):
            raise DomainError(f"trial metrics must be finite, got {vals}")
        if self.se_nmse < 0.0 or self.sp_nmse < 0.0:
            raise DomainError("NMSE metrics are non-negative")


@dataclass(frozen=True)
class AggregateRecord:
    """Mean and standard error of each metric for one method over all trials."""

    method: str
    mean_rel_bias: float
    mean_se_nmse: float
    mean_sp_nmse: float
    stderr_rel_bias: float
    stderr_se_nmse: float
    stderr_sp_nmse: float
    n_trials: int


def mean_abs_sq(out: np.ndarray) -> float:
    """Output power ``(1/T) sum |s_hat(t)|^2`` as one ``vdot``, the oracle
    trial's form; its last bits differ from ``estimation.output_moments``."""
    return float(np.vdot(out, out).real) / out.size


def trial_records(
    trial_index: int, gamma: float, truth: np.ndarray, entries
) -> list[TrialRecord]:
    """Score one trial: one record per ``(method, output, gamma_hat, alpha_used)``.

    ``output`` is the method's waveform estimate of ``truth`` and
    ``gamma_hat`` its power estimate, or ``None`` for the output power.  The
    true power and the waveform energy are checked once for all methods.
    """
    if not gamma > 0.0:
        raise DomainError(f"true power must be positive, got {gamma}")
    truth_energy = float(np.vdot(truth, truth).real)
    if truth_energy <= 0.0:
        raise DegenerateSample("true waveform has zero energy")
    records = []
    for method, out, gamma_hat, alpha_used in entries:
        if gamma_hat is None:
            gamma_hat = mean_abs_sq(out)
        rel = (gamma_hat - gamma) / gamma
        err = out - truth
        records.append(
            TrialRecord(
                method=method,
                trial_index=trial_index,
                rel_bias_term=rel,
                se_nmse=float(np.vdot(err, err).real) / truth_energy,
                sp_nmse=rel * rel,
                alpha_used=alpha_used,
            )
        )
    return records


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.sum(values) / n)
    std = float(np.sqrt(np.sum((values - mean) ** 2) / (n - 1)))
    return mean, float(std / math.sqrt(n))


def aggregate(records: list[TrialRecord]) -> list[AggregateRecord]:
    """Per-method means and standard errors, in canonical method order.

    Records are summed in trial-index order so that the result is bitwise
    reproducible regardless of how the input list was assembled.
    """
    by_method: dict[str, list[TrialRecord]] = {}
    for rec in records:
        by_method.setdefault(rec.method, []).append(rec)
    out = []
    methods = sorted(
        by_method,
        key=lambda name: (METHOD_ORDER.index(name) if name in METHOD_ORDER else len(METHOD_ORDER), name),
    )
    for method in methods:
        recs = sorted(by_method[method], key=lambda r: r.trial_index)
        if len(recs) < 2:
            raise InsufficientTrials(
                f"method {method!r} has {len(recs)} record(s); need at least 2"
            )
        rel = np.array([r.rel_bias_term for r in recs])
        se = np.array([r.se_nmse for r in recs])
        sp = np.array([r.sp_nmse for r in recs])
        (m_rel, e_rel), (m_se, e_se), (m_sp, e_sp) = map(_mean_stderr, (rel, se, sp))
        out.append(
            AggregateRecord(
                method=method,
                mean_rel_bias=m_rel,
                mean_se_nmse=m_se,
                mean_sp_nmse=m_sp,
                stderr_rel_bias=e_rel,
                stderr_se_nmse=e_se,
                stderr_sp_nmse=e_sp,
                n_trials=len(recs),
            )
        )
    return out
