import numpy as np
import pytest

from caponplus.errors import DegenerateSample, DomainError, InsufficientTrials
from caponplus.metrics import (
    AggregateRecord,
    TrialRecord,
    aggregate,
    trial_records,
)


def rec(method, idx, rel=0.0, se=0.0, sp=0.0, alpha=1.0):
    return TrialRecord(
        method=method, trial_index=idx, rel_bias_term=rel, se_nmse=se, sp_nmse=sp,
        alpha_used=alpha,
    )


S = np.array([1.0 + 1.0j, -2.0j, 0.5])


def score(gamma_hat, gamma=1.0, out=S, truth=S):
    """The single record of one method scored by :func:`trial_records`."""
    (record,) = trial_records(0, gamma, truth, [("Capon", out, gamma_hat, 1.0)])
    return record


class TestScalarMetrics:
    def test_relative_bias(self):
        assert score(1.0).rel_bias_term == 0.0
        assert score(1.2).rel_bias_term == pytest.approx(0.2)
        # no estimate: the output power, mean |S|^2 = (2 + 4 + 0.25) / 3 = 25/12
        assert score(None).rel_bias_term == pytest.approx(13.0 / 12.0)
        with pytest.raises(DomainError):
            score(1.0, gamma=0.0)

    def test_se_nmse_examples(self):
        assert score(1.0).se_nmse == 0.0
        assert score(1.0, out=np.zeros_like(S)).se_nmse == pytest.approx(1.0)
        assert score(1.0, out=2.0 * S).se_nmse == pytest.approx(1.0)
        with pytest.raises(DegenerateSample):
            score(1.0, truth=np.zeros_like(S))

    def test_sp_nmse_examples(self):
        assert score(1.0).sp_nmse == 0.0
        assert score(0.0).sp_nmse == pytest.approx(1.0)
        assert score(1.5).sp_nmse == pytest.approx(0.25)

    def test_trial_record_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            rec("Capon", 0, rel=float("nan"))
        with pytest.raises(DomainError):
            rec("Capon", 0, se=-0.1)


class TestAggregate:
    def test_identical_records_zero_stderr(self):
        records = [rec("Capon", i, rel=0.3, se=0.1, sp=0.09) for i in range(10)]
        (agg,) = aggregate(records)
        assert agg.mean_rel_bias == pytest.approx(0.3)
        assert agg.stderr_rel_bias == pytest.approx(0.0, abs=1e-15)
        assert agg.n_trials == 10

    def test_two_records_hand_values(self):
        # values {0, 2}: mean 1, sample std sqrt(2), stderr sqrt(2)/sqrt(2) = 1
        records = [rec("Capon", 0, rel=0.0), rec("Capon", 1, rel=2.0)]
        (agg,) = aggregate(records)
        assert agg.mean_rel_bias == pytest.approx(1.0)
        assert agg.stderr_rel_bias == pytest.approx(1.0)

    def test_permutation_invariance_with_trial_indices(self):
        rng = np.random.default_rng(0)
        records = [
            rec(m, i, rel=float(rng.standard_normal()), se=float(rng.random()),
                sp=float(rng.random()))
            for i in range(25)
            for m in ("Capon", "MMSE")
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert aggregate(records) == aggregate(shuffled)

    def test_canonical_method_order(self):
        records = []
        for i in range(3):
            for m in ("Debiased", "CaponPlus", "CB", "MMSE", "Capon"):
                records.append(rec(m, i))
        out = aggregate(records)
        assert [a.method for a in out] == ["CB", "Capon", "MMSE", "CaponPlus", "Debiased"]

    def test_insufficient_trials(self):
        with pytest.raises(InsufficientTrials):
            aggregate([rec("Capon", 0)])

    def test_mse_at_least_squared_bias(self):
        # per-trial sp = rel^2 makes this a Jensen inequality on the aggregate
        rng = np.random.default_rng(1)
        rels = rng.standard_normal(500) * 0.2 + 0.1
        records = [rec("Capon", i, rel=float(r), sp=float(r * r)) for i, r in enumerate(rels)]
        (agg,) = aggregate(records)
        slack = 3.0 * agg.stderr_sp_nmse
        assert agg.mean_sp_nmse >= agg.mean_rel_bias**2 - slack

    def test_aggregate_is_plain_dataclass(self):
        records = [rec("Capon", 0), rec("Capon", 1)]
        (agg,) = aggregate(records)
        assert isinstance(agg, AggregateRecord)
        assert all(
            isinstance(getattr(agg, f), float)
            for f in (
                "mean_rel_bias", "mean_se_nmse", "mean_sp_nmse",
                "stderr_rel_bias", "stderr_se_nmse", "stderr_sp_nmse",
            )
        )
