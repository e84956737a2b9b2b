"""Per-trial performance metrics and their Monte-Carlo aggregates.

:func:`trial_records` is the one place that scores a trial: the relative
power bias ``(gamma_hat - gamma) / gamma``, the power NMSE (its square) and
the waveform NMSE ``sum |s_hat - s|^2 / sum |s|^2``.  Each record is the
plain tuple ``(method, rel_bias, se_nmse, sp_nmse)``; :func:`aggregate` takes
a flat list of them and keeps the order it is given.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateSample, DomainError

__all__ = [
    "TrialRecord",
    "AggregateRecord",
    "mean_abs_sq",
    "trial_records",
    "aggregate",
]

# One method's metrics in one trial: (method, rel_bias, se_nmse, sp_nmse).
TrialRecord = tuple[str, float, float, float]


@dataclass(frozen=True)
class AggregateRecord:
    """Mean and standard error of each metric for one method over all trials."""

    method: str
    mean_rel_bias: float
    stderr_rel_bias: float
    mean_se_nmse: float
    stderr_se_nmse: float
    mean_sp_nmse: float
    stderr_sp_nmse: float
    n_trials: int


def mean_abs_sq(out: np.ndarray) -> float:
    """Output power ``(1/T) sum |s_hat(t)|^2`` as one ``vdot``, the oracle
    trial's form; its last bits differ from ``estimation.output_moments``."""
    return float(np.vdot(out, out).real) / out.size


def trial_records(gamma: float, truth: np.ndarray, entries) -> list[TrialRecord]:
    """Score one trial: one record per ``(method, output, gamma_hat)``.

    ``output`` is the method's waveform estimate of ``truth`` and
    ``gamma_hat`` its power estimate, or ``None`` for the output power.  The
    true power and the waveform energy are checked once for all methods.
    """
    if not gamma > 0.0:
        raise DomainError(f"true power must be positive, got {gamma}")
    vdot = np.vdot
    truth_energy = float(vdot(truth, truth).real)
    if truth_energy <= 0.0:
        raise DegenerateSample("true waveform has zero energy")
    records = []
    for method, out, gamma_hat in entries:
        if gamma_hat is None:
            gamma_hat = mean_abs_sq(out)
        rel = (gamma_hat - gamma) / gamma
        err = out - truth
        records.append((method, rel, float(vdot(err, err).real) / truth_energy, rel * rel))
    return records


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.sum(values) / n)
    std = float(np.sqrt(np.sum((values - mean) ** 2) / (n - 1)))
    return mean, float(std / math.sqrt(n))


def aggregate(records: list[TrialRecord]) -> list[AggregateRecord]:
    """Per-method means and standard errors.

    Methods come out in the order they first appear in ``records``, and each
    method's metrics are summed in list order, so the list's order alone fixes
    every output bit.  Columns are read with ``np.fromiter``: a ``zip(*recs)``
    transpose makes one iterator per record, which the garbage collector slows.
    """
    by_method: dict[str, list[TrialRecord]] = defaultdict(list)
    for rec in records:
        by_method[rec[0]].append(rec)
    out = []
    for method, recs in by_method.items():
        if len(recs) < 2:
            raise DomainError(f"method {method!r} has {len(recs)} record(s); need at least 2")
        rel, se, sp = (np.fromiter(map(itemgetter(k), recs), float, len(recs)) for k in (1, 2, 3))
        if not all(np.isfinite(col).all() for col in (rel, se, sp)):
            raise DomainError(f"trial metrics of {method!r} must be finite")
        (m_rel, e_rel), (m_se, e_se), (m_sp, e_sp) = map(_mean_stderr, (rel, se, sp))
        out.append(
            AggregateRecord(
                method=method,
                mean_rel_bias=m_rel,
                stderr_rel_bias=e_rel,
                mean_se_nmse=m_se,
                stderr_se_nmse=e_se,
                mean_sp_nmse=m_sp,
                stderr_sp_nmse=e_sp,
                n_trials=len(recs),
            )
        )
    return out
