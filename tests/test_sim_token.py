"""Tests for token-based, hybrid, phonetic, and generic similarity."""

import math

import pytest

from repro.text.sim import (
    Cosine,
    Dice,
    GeneralizedJaccard,
    Jaccard,
    MongeElkan,
    Overlap,
    OverlapCoefficient,
    Soundex,
    SoftTfIdf,
    TfIdf,
    TverskyIndex,
    abs_norm,
    exact_match,
    rel_diff,
    soundex_code,
)


class TestSetMeasures:
    def test_jaccard(self):
        assert Jaccard().get_raw_score({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_jaccard_lists(self):
        assert Jaccard().get_raw_score(["a", "a", "b"], ["b"]) == 0.5

    def test_dice(self):
        assert Dice().get_raw_score({"a", "b"}, {"b", "c"}) == 0.5

    def test_overlap_coefficient(self):
        assert OverlapCoefficient().get_raw_score({"a", "b", "c"}, {"b"}) == 1.0

    def test_overlap_raw(self):
        assert Overlap().get_raw_score({"a", "b"}, {"b", "c"}) == 1

    def test_cosine(self):
        result = Cosine().get_raw_score({"a", "b"}, {"b", "c"})
        assert result == pytest.approx(1 / 2)

    @pytest.mark.parametrize("cls", [Jaccard, Dice, OverlapCoefficient, Cosine])
    def test_empty_conventions(self, cls):
        assert cls().get_raw_score(set(), set()) == 1.0
        assert cls().get_raw_score({"a"}, set()) == 0.0

    def test_tversky_reduces_to_jaccard(self):
        left, right = {"a", "b", "c"}, {"b", "c", "d"}
        tversky = TverskyIndex(alpha=1.0, beta=1.0)
        assert tversky.get_raw_score(left, right) == pytest.approx(
            Jaccard().get_raw_score(left, right)
        )

    def test_tversky_reduces_to_dice(self):
        left, right = {"a", "b", "c"}, {"b", "c", "d"}
        tversky = TverskyIndex(alpha=0.5, beta=0.5)
        assert tversky.get_raw_score(left, right) == pytest.approx(
            Dice().get_raw_score(left, right)
        )

    def test_tversky_invalid(self):
        with pytest.raises(ValueError):
            TverskyIndex(alpha=-1)


class TestTfIdf:
    def test_no_corpus_is_tf_cosine(self):
        assert TfIdf().get_raw_score(["a"], ["a"]) == pytest.approx(1.0)

    def test_rare_token_dominates(self):
        corpus = [["common", "rare"], ["common"], ["common"], ["common"]]
        measure = TfIdf(corpus)
        rare_match = measure.get_raw_score(["rare", "x"], ["rare", "y"])
        common_match = measure.get_raw_score(["common", "x"], ["common", "y"])
        assert rare_match > common_match

    def test_disjoint(self):
        assert TfIdf().get_raw_score(["a"], ["b"]) == 0.0

    def test_empty(self):
        assert TfIdf().get_raw_score([], []) == 1.0
        assert TfIdf().get_raw_score(["a"], []) == 0.0

    def test_token_everywhere_has_zero_idf(self):
        corpus = [["x"], ["x"]]
        assert TfIdf(corpus).get_raw_score(["x"], ["x"]) == 0.0


class TestHybrid:
    def test_monge_elkan_identical(self):
        assert MongeElkan().get_raw_score(["dave", "smith"], ["dave", "smith"]) == 1.0

    def test_monge_elkan_asymmetric(self):
        measure = MongeElkan()
        forward = measure.get_raw_score(["dave"], ["dave", "junk"])
        backward = measure.get_raw_score(["dave", "junk"], ["dave"])
        assert forward != backward

    def test_monge_elkan_empty(self):
        assert MongeElkan().get_raw_score([], []) == 1.0
        assert MongeElkan().get_raw_score(["a"], []) == 0.0

    def test_generalized_jaccard_exact(self):
        assert GeneralizedJaccard().get_raw_score({"dave"}, {"dave"}) == 1.0

    def test_generalized_jaccard_soft_match(self):
        hard = Jaccard().get_raw_score({"daev", "smith"}, {"dave", "smith"})
        soft = GeneralizedJaccard().get_raw_score({"daev", "smith"}, {"dave", "smith"})
        assert soft > hard

    def test_soft_tfidf_at_least_exact_overlap(self):
        measure = SoftTfIdf()
        assert measure.get_raw_score(["dave", "smith"], ["daev", "smith"]) > 0.5

    def test_soft_tfidf_empty(self):
        assert SoftTfIdf().get_raw_score([], []) == 1.0


class TestPhonetic:
    @pytest.mark.parametrize(
        "word,code",
        [
            ("Robert", "R163"),
            ("Rupert", "R163"),
            ("Ashcraft", "A261"),
            ("Ashcroft", "A261"),
            ("Tymczak", "T522"),
            ("Pfister", "P236"),
        ],
    )
    def test_soundex_codes(self, word, code):
        assert soundex_code(word) == code

    def test_soundex_measure(self):
        assert Soundex().get_raw_score("Robert", "Rupert") == 1.0
        assert Soundex().get_raw_score("Robert", "Wilson") == 0.0
        assert Soundex().get_raw_score("123", "Robert") == 0.0


class TestGeneric:
    def test_exact_match(self):
        assert exact_match(1, 1) == 1.0
        assert exact_match("a", "b") == 0.0
        assert math.isnan(exact_match(None, 1))
        assert math.isnan(exact_match(1, float("nan")))

    def test_abs_norm(self):
        assert abs_norm(10, 10) == 1.0
        assert abs_norm(0, 0) == 1.0
        assert abs_norm(10, 5) == 0.5
        assert math.isnan(abs_norm(None, 5))
        assert math.isnan(abs_norm("not a number", 5))

    def test_rel_diff(self):
        assert rel_diff(10, 10) == 0.0
        assert rel_diff(0, 0) == 0.0
        assert rel_diff(10, 5) == pytest.approx(5 / 7.5)
        assert math.isnan(rel_diff(None, 5))

    def test_int_too_large_for_a_float_reads_as_not_a_number(self):
        """``float(10**400)`` raises ``OverflowError``: NaN, like any other
        value that does not convert, rather than an exception."""
        for measure in (abs_norm, rel_diff):
            assert math.isnan(measure(10**400, 1))
            assert math.isnan(measure(1, -(10**400)))
        # A string past the float range converts, to inf: NaN by arithmetic.
        assert math.isnan(abs_norm("1e400", 1))
        assert math.isnan(rel_diff("1e400", 1))
