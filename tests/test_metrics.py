import numpy as np
import pytest

from caponplus.errors import DegenerateSample, DomainError
from caponplus.metrics import AggregateRecord, aggregate, aggregate_table, score_outputs
from helpers import reference_records


def rec(method, rel=0.0, se=0.0, sp=0.0):
    return (method, rel, se, sp)


S = np.array([1.0 + 1.0j, -2.0j, 0.5])


def score(gamma_hat, gamma=1.0, out=S, truth=S):
    """``(rel_bias, se_nmse, sp_nmse)`` of one output scored by :func:`score_outputs`."""
    (((method, rel, se, sp),),) = score_outputs(("Capon",), (gamma,), truth[None],
                                                out[None, None].copy(), ((gamma_hat,),))
    assert method == "Capon"
    return rel, se, sp


class TestScalarMetrics:
    def test_relative_bias(self):
        rel, _, _ = score(1.0)
        assert rel == 0.0
        rel, _, _ = score(1.2)
        assert rel == pytest.approx(0.2)
        with pytest.raises(DomainError):
            score(1.0, gamma=0.0)

    def test_se_nmse_examples(self):
        _, se, _ = score(1.0)
        assert se == 0.0
        _, se, _ = score(1.0, out=np.zeros_like(S))
        assert se == pytest.approx(1.0)
        _, se, _ = score(1.0, out=2.0 * S)
        assert se == pytest.approx(1.0)
        with pytest.raises(DegenerateSample):
            score(1.0, truth=np.zeros_like(S))

    def test_sp_nmse_examples(self):
        _, _, sp = score(1.0)
        assert sp == 0.0
        _, _, sp = score(0.0)
        assert sp == pytest.approx(1.0)
        _, _, sp = score(1.5)
        assert sp == pytest.approx(0.25)


class TestScoreOutputs:
    """Outputs scored together, in one group or stacked groups, get the bits
    each gets scored alone, and those of scoring them one ``np.vdot`` at a time."""

    @pytest.mark.parametrize("t", [1, 7, 60, 200])
    def test_stacked_groups_score_each_output_as_alone(self, t):
        rng = np.random.default_rng(t)
        methods = ("CB", "Capon", "MMSE", "CaponPlus")
        shape = (3, 4, t)
        outs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        truth = rng.standard_normal((3, t)) + 1j * rng.standard_normal((3, t))
        gamma = (10.0 ** rng.uniform(-2, 2, size=3)).tolist()
        powers = (10.0 ** rng.uniform(-2, 2, size=(3, 4))).tolist()
        scored = outs.copy()
        groups = score_outputs(methods, gamma, truth, scored, powers)
        # the outputs passed in are overwritten with their errors
        assert np.array_equal(scored, outs - truth[:, None])
        assert [[r[0] for r in group] for group in groups] == [list(methods)] * 3
        for g in range(3):
            ref = reference_records(gamma[g], truth[g], zip(methods, outs[g], powers[g]))
            assert exact(groups[g]) == exact(ref)
            for k in range(4):
                (alone,), = score_outputs(methods[k:], gamma[g:g + 1], truth[g:g + 1],
                                          outs[g:g + 1, k:k + 1].copy(),
                                          [powers[g][k:k + 1]])
                assert exact([alone]) == exact([groups[g][k]])

    def test_every_group_checked(self):
        truth = np.stack([S, S])
        outs, powers = np.stack([truth, truth], axis=1), [[1.0, 1.0]] * 2
        with pytest.raises(DomainError, match="true power"):
            score_outputs(("a", "b"), (1.0, 0.0), truth, outs, powers)
        truth[1] = 0.0
        with pytest.raises(DegenerateSample):
            score_outputs(("a", "b"), (1.0, 1.0), truth, outs, powers)


def exact(records):
    """Records with each float as its ``float.hex``, so equal means equal bits."""
    return [(method, *(v.hex() for v in values)) for method, *values in records]


class TestAggregate:
    def test_identical_records_zero_stderr(self):
        records = [rec("Capon", rel=0.3, se=0.1, sp=0.09) for _ in range(10)]
        (agg,) = aggregate(records)
        assert agg.mean_rel_bias == pytest.approx(0.3)
        assert agg.stderr_rel_bias == pytest.approx(0.0, abs=1e-15)
        assert agg.n_trials == 10

    def test_two_records_hand_values(self):
        # values {0, 2}: mean 1, sample std sqrt(2), stderr sqrt(2)/sqrt(2) = 1
        records = [rec("Capon", rel=0.0), rec("Capon", rel=2.0)]
        (agg,) = aggregate(records)
        assert agg.mean_rel_bias == pytest.approx(1.0)
        assert agg.stderr_rel_bias == pytest.approx(1.0)

    def test_aggregate_rejects_nonfinite(self):
        good = dict(rel=0.1, se=0.2, sp=0.01)
        for column in good:
            for bad in (float("nan"), np.inf, -np.inf):
                records = [rec("MMSE", **good), rec("Capon", **good), rec("MMSE", **good)]
                records += [rec("Capon", **{**good, column: bad}), rec("Capon", **good)]
                with pytest.raises(DomainError, match="'Capon' must be finite"):
                    aggregate(records)

    def test_first_appearance_method_order(self):
        records = []
        for _ in range(3):
            for m in ("Debiased", "CaponPlus", "CB", "MMSE", "Capon"):
                records.append(rec(m))
        out = aggregate(records)
        assert [a.method for a in out] == ["Debiased", "CaponPlus", "CB", "MMSE", "Capon"]

    def test_insufficient_trials(self):
        with pytest.raises(DomainError, match=r"has 1 record\(s\); need at least 2"):
            aggregate([rec("Capon")])

    def test_mse_at_least_squared_bias(self):
        # per-trial sp = rel^2 makes this a Jensen inequality on the aggregate
        rng = np.random.default_rng(1)
        rels = rng.standard_normal(500) * 0.2 + 0.1
        records = [rec("Capon", rel=float(r), sp=float(r * r)) for r in rels]
        (agg,) = aggregate(records)
        slack = 3.0 * agg.stderr_sp_nmse
        assert agg.mean_sp_nmse >= agg.mean_rel_bias**2 - slack

    def test_aggregate_is_plain_dataclass(self):
        records = [rec("Capon"), rec("Capon")]
        (agg,) = aggregate(records)
        assert isinstance(agg, AggregateRecord)
        assert all(
            isinstance(getattr(agg, f), float)
            for f in (
                "mean_rel_bias", "mean_se_nmse", "mean_sp_nmse",
                "stderr_rel_bias", "stderr_se_nmse", "stderr_sp_nmse",
            )
        )


class TestAggregateTable:
    @pytest.mark.parametrize("n_trials", [2, 3, 17, 1000])
    def test_table_gives_the_bits_of_the_records(self, n_trials):
        rng = np.random.default_rng(n_trials)
        methods = ("CB", "Capon", "MMSE", "CaponPlus")
        table = rng.standard_normal((n_trials * len(methods), 3)) * 10.0 ** rng.uniform(-8, 3)
        records = [(method, *row) for method, row in
                   zip(methods * n_trials, table.tolist())]
        assert aggregate_table(methods, table) == aggregate(records)

    def test_table_checks_as_records_do(self):
        table = np.zeros((4, 3))
        table[3, 1] = np.nan
        with pytest.raises(DomainError, match="'Capon' must be finite"):
            aggregate_table(("MMSE", "Capon"), table)
        with pytest.raises(DomainError, match=r"has 1 record\(s\); need at least 2"):
            aggregate_table(("Capon",), np.zeros((1, 3)))
