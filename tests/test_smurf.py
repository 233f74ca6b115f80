"""Tests for Smurf: label-free blocking, labeling-effort reduction."""

import random

import pytest

from repro.datasets import DirtinessConfig, make_string_dataset
from repro.datasets.vocab import CITIES, FIRST_NAMES, LAST_NAMES
from repro.labeling import LabelingSession, OracleLabeler
from repro.smurf import SmurfConfig, run_smurf
from repro.smurf.smurf import JOIN_THRESHOLDS


def string_dataset(seed=0, n=400):
    rng = random.Random(seed)
    strings = sorted(  # sorted: set iteration order is hash-randomized
        {
            f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)} {rng.choice(CITIES)}"
            for _ in range(n)
        }
    )
    return make_string_dataset(
        strings, match_fraction=0.6, dirtiness=DirtinessConfig.light(), seed=seed
    )


class TestSmurf:
    def test_accuracy(self):
        ds = string_dataset(seed=1)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        result = run_smurf(ds, session, config=SmurfConfig(random_state=0))
        predicted = result.match_pairs
        tp = len(predicted & ds.gold_pairs)
        assert tp / len(predicted) > 0.85
        assert tp / len(ds.gold_pairs) > 0.7

    def test_no_labels_spent_on_blocking(self):
        """Smurf's defining property: candidates come from an unsupervised
        join, so every question belongs to the matching stage."""
        ds = string_dataset(seed=2)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        result = run_smurf(ds, session, config=SmurfConfig(random_state=0))
        assert result.questions == result.matching_stage.questions
        assert result.questions == session.questions_asked

    def test_join_threshold_from_config_grid(self):
        ds = string_dataset(seed=3)
        config = SmurfConfig(random_state=0)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        result = run_smurf(ds, session, config=config)
        assert result.join_threshold in JOIN_THRESHOLDS

    def test_candidate_budget_respected(self):
        ds = string_dataset(seed=4)
        config = SmurfConfig(candidate_budget_factor=2.0, random_state=0)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        result = run_smurf(ds, session, config=config)
        budget = 2.0 * max(ds.ltable.num_rows, ds.rtable.num_rows)
        # The chosen threshold's candidate set fits the budget (unless even
        # the tightest threshold overflowed, flagged by the top threshold).
        assert (
            result.candset.num_rows <= budget
            or result.join_threshold == JOIN_THRESHOLDS[0]
        )

    def test_private_catalog_result_still_answers_match_pairs(self):
        from repro.catalog import Catalog

        ds = string_dataset(seed=7, n=150)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        result = run_smurf(
            ds, session, config=SmurfConfig(random_state=0), catalog=Catalog()
        )
        assert result.match_pairs == set(
            zip(result.matches["ltable_id"], result.matches["rtable_id"])
        )
        assert result.match_pairs & ds.gold_pairs

    def test_missing_column_rejected(self):
        ds = string_dataset(seed=5)
        session = LabelingSession(OracleLabeler(ds.gold_pairs))
        with pytest.raises(Exception):
            run_smurf(ds, session, column="no_such_column")

    def test_uses_fewer_labels_than_falcon_at_same_accuracy(self):
        """The paper's headline: Smurf cuts labeling effort (43-76% there)
        by skipping the blocking-stage labels, at comparable accuracy."""
        from repro.falcon import FalconConfig, run_falcon

        ds = string_dataset(seed=6)
        falcon_session = LabelingSession(OracleLabeler(ds.gold_pairs))
        falcon = run_falcon(
            ds, falcon_session,
            FalconConfig(sample_size=800, blocking_budget=150,
                         matching_budget=200, random_state=0),
        )
        assert falcon.blocking_stage.questions > 0

        smurf_session = LabelingSession(OracleLabeler(ds.gold_pairs))
        smurf = run_smurf(
            ds, smurf_session,
            config=SmurfConfig(
                matching_budget=falcon.matching_stage.questions, random_state=0
            ),
        )
        assert smurf.questions < falcon.questions

        def f1_of(pairs):
            tp = len(pairs & ds.gold_pairs)
            precision = tp / len(pairs) if pairs else 0.0
            recall = tp / len(ds.gold_pairs)
            if precision + recall == 0:
                return 0.0
            return 2 * precision * recall / (precision + recall)

        assert f1_of(smurf.match_pairs) >= f1_of(falcon.match_pairs) - 0.15


class TestAutoJoin:
    """The threshold ladder joins once per rung it tries and no more."""

    @staticmethod
    def _count_joins(monkeypatch):
        import repro.smurf.smurf as smurf

        thresholds = []
        join = smurf.set_sim_join

        def counted(*args, **kwargs):
            thresholds.append(kwargs["threshold"])
            return join(*args, **kwargs)

        monkeypatch.setattr(smurf, "set_sim_join", counted)
        return thresholds

    @staticmethod
    def _pairs_at(ds, threshold):
        from repro.simjoin import set_sim_join
        from repro.text.tokenizers import QgramTokenizer

        joined = set_sim_join(
            ds.ltable, ds.rtable, ds.l_key, ds.r_key, "value", "value",
            QgramTokenizer(q=3, return_set=True), measure="jaccard", threshold=threshold,
        )
        return sorted(zip(joined.column("l_id"), joined.column("r_id")))

    def test_first_rung_overflow_joins_once(self, monkeypatch):
        from repro.smurf.smurf import _auto_join

        ds = string_dataset(seed=5)
        joins = self._count_joins(monkeypatch)
        pairs, threshold = _auto_join(ds, "value", SmurfConfig(candidate_budget_factor=0.01))
        assert joins == [0.8] and threshold == 0.8
        assert pairs == self._pairs_at(ds, 0.8) and len(pairs) > 0.01 * ds.ltable.num_rows

    def test_loosens_to_the_last_rung_that_fits(self, monkeypatch):
        from repro.smurf.smurf import _auto_join

        ds = string_dataset(seed=5)
        config = SmurfConfig()
        joins = self._count_joins(monkeypatch)
        pairs, threshold = _auto_join(ds, "value", config)
        assert joins == list(JOIN_THRESHOLDS[: len(joins)])  # one join per rung tried
        assert threshold in joins
        assert pairs == self._pairs_at(ds, threshold)
