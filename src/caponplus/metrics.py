"""Per-trial performance metrics and their Monte-Carlo aggregates.

:func:`score_outputs` is the one place that scores trials: for each output
of a beamformer, the estimate of a true SOI waveform, and its power
estimate, it gives the relative power bias ``(gamma_hat - gamma) / gamma``,
the power NMSE (its square) and the waveform NMSE
``sum |s_hat - s|^2 / sum |s|^2``, for many outputs, and many truths, in
one call.  A trial's record for one method is the plain tuple
``(method, rel_bias, se_nmse, sp_nmse)``.  :func:`aggregate_table` takes the
records of a sweep point as a float64 table of their metrics, one row per
record, and :func:`aggregate` as a flat list of tuples; both keep the order
they are given.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateSample, DomainError

__all__ = [
    "TrialRecord",
    "AggregateRecord",
    "score_outputs",
    "aggregate",
    "aggregate_table",
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


def score_outputs(methods: Sequence[str], gamma: Sequence[float], truth: np.ndarray,
                  outs: np.ndarray, powers) -> list[list[TrialRecord]]:
    """Score ``P`` groups of beamformer outputs, each against its own truth.

    ``truth[p]`` is a true waveform, ``(P, T)`` in all, and ``gamma[p]`` its
    true power; ``outs[p, k]``, ``(P, n, T)`` in all, is the waveform
    estimate of method ``methods[k]`` and ``powers[p][k]`` its power
    estimate.  Returns each group's records, one per method.

    The waveform energies are ``np.vecdot`` of each row with itself, which
    calls BLAS ``zdotc`` on that row as ``np.vdot`` does on one array; the
    rest is float arithmetic per output.  So an output's metrics have the
    bits they have when it is scored alone, as long as each row of ``truth``
    is contiguous (C order, or one row broadcast): ``zdotc`` over a strided
    row, as of a column-major ``truth``, rounds differently.  Each group's
    true power and waveform energy are checked once for all its outputs.

    ``outs`` is overwritten with the errors ``outs - truth``: every caller
    passes a temporary, and subtracting in place spares a copy of the
    size of ``outs``.
    """
    energies = np.vecdot(truth, truth).real.tolist()
    err = np.subtract(outs, truth[:, None, :], out=outs)
    records = []
    for g, energy, err_energies, group_powers in zip(
            gamma, energies, np.vecdot(err, err).real.tolist(), powers):
        if not g > 0.0:
            raise DomainError(f"true power must be positive, got {g}")
        if not energy > 0.0:
            raise DegenerateSample("true waveform has zero energy")
        group = []
        for method, gamma_hat, err_energy in zip(methods, group_powers, err_energies):
            rel = (gamma_hat - g) / g
            group.append((method, rel, err_energy / energy, rel * rel))
        records.append(group)
    return records


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.sum(values) / n)
    std = float(np.sqrt(np.sum((values - mean) ** 2) / (n - 1)))
    return mean, float(std / math.sqrt(n))


def _aggregate_method(method: str, columns: np.ndarray) -> AggregateRecord:
    """One method's aggregate from its ``(3, n)`` metric columns, each contiguous."""
    n = columns.shape[1]
    if n < 2:
        raise DomainError(f"method {method!r} has {n} record(s); need at least 2")
    if not np.isfinite(columns).all():
        raise DomainError(f"trial metrics of {method!r} must be finite")
    (m_rel, e_rel), (m_se, e_se), (m_sp, e_sp) = map(_mean_stderr, columns)
    return AggregateRecord(
        method=method,
        mean_rel_bias=m_rel,
        stderr_rel_bias=e_rel,
        mean_se_nmse=m_se,
        stderr_se_nmse=e_se,
        mean_sp_nmse=m_sp,
        stderr_sp_nmse=e_sp,
        n_trials=n,
    )


def aggregate_table(methods: Sequence[str], table: np.ndarray) -> list[AggregateRecord]:
    """Per-method means and standard errors of the ``(n_records, 3)`` metric
    table of trials that each scored ``methods`` in that order, trial by trial.

    Each method's metrics are summed in trial order from contiguous columns,
    so the table's order alone fixes every output bit, and the result is
    that of :func:`aggregate` on the same records.
    """
    columns = np.ascontiguousarray(table.reshape(-1, len(methods), 3).transpose(1, 2, 0))
    return [_aggregate_method(method, cols) for method, cols in zip(methods, columns)]


def aggregate(records: list[TrialRecord]) -> list[AggregateRecord]:
    """Per-method means and standard errors of a flat list of records.

    Methods come out in the order they first appear in ``records``, and each
    method's metrics are summed in list order, so the list's order alone fixes
    every output bit.  Columns are read with ``np.fromiter``: a ``zip(*recs)``
    transpose makes one iterator per record, which the garbage collector slows.
    """
    by_method: dict[str, list[TrialRecord]] = defaultdict(list)
    for rec in records:
        by_method[rec[0]].append(rec)
    return [_aggregate_method(method, np.array([
        np.fromiter(map(itemgetter(k), recs), float, len(recs)) for k in (1, 2, 3)]))
        for method, recs in by_method.items()]
