"""Differential suite for the batched similarity kernels.

Every ``batch_*`` twin must return, element for element, the float (or
int) its scalar method returns: comparisons are ``==`` on the values,
never ``approx``.  For Levenshtein both forms are also held to the
two-row dynamic program they replaced, which survives only here.
"""

from __future__ import annotations

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.sim.edit_based as edit_based
import repro.text.sim.hybrid as hybrid
from repro.exceptions import ConfigurationError
from repro.features import make_exact_feature, make_numeric_feature, make_token_feature
from repro.features.generation import _MongeElkanOnWords
from repro.obs import use_registry
from repro.perf.arrays import scores_arrays
from repro.text.sim import (
    Cosine,
    Dice,
    Jaccard,
    Jaro,
    JaroWinkler,
    Levenshtein,
    MongeElkan,
    OverlapCoefficient,
    abs_norm,
    rel_diff,
)
from repro.text.tokenizers import (
    AlphabeticTokenizer,
    DelimiterTokenizer,
    QgramTokenizer,
    WhitespaceTokenizer,
)


def two_row_levenshtein(left: str, right: str) -> int:
    """The textbook dynamic program: the oracle for both Myers forms."""
    previous = list(range(len(right) + 1))
    for i, ch_left in enumerate(left, start=1):
        current = [i]
        for j, ch_right in enumerate(right, start=1):
            current.append(
                min(previous[j - 1] + (ch_left != ch_right), previous[j] + 1, current[j - 1] + 1)
            )
        previous = current
    return previous[-1]


# Small alphabet (so matches, repeats and transpositions are common) plus
# an astral code point, a combining mark, NUL and the one character whose
# ``lower()`` is two code points.
ALPHABET = "aab \x00\u0301\U0001d518" + "\u0130".lower()
texts = st.text(alphabet=ALPHABET, max_size=12)
EDGE_STRINGS = [
    "",
    " ",
    "a",
    "aaaa",
    "abab",
    "a" * 63,
    "a" * 64,
    "a" * 65,
    "b" + "a" * 63,
    "ab" * 40,
    "\u0130".lower() * 3,
    "\u00e9",
    "e\u0301",
    "\U0001d518\U0001d519",
]
EDGE_PAIRS = [(left, right) for left in EDGE_STRINGS for right in EDGE_STRINGS]


@pytest.fixture(params=[hybrid.CHUNK_CELLS, 7])
def budgets(request, monkeypatch):
    """The shipped budgets (named by Monge-Elkan's ``CHUNK_CELLS``), and
    tiny ones: 7 cells cut every batch of token bags into many chunks (and
    single wide rows overflow them), and 7 step bytes give an edit kernel
    one lane per step, each with its own pattern table."""
    if request.param != hybrid.CHUNK_CELLS:
        monkeypatch.setattr(hybrid, "CHUNK_CELLS", request.param)
        monkeypatch.setattr(edit_based, "STEP_BYTES", request.param)
    return request.param


def assert_same(batched: np.ndarray, scalar: list) -> None:
    assert batched.tolist() == scalar
    assert all(type(value) is type(expected) for value, expected in zip(batched.tolist(), scalar))


class TestLevenshtein:
    def test_edge_pairs(self, budgets):
        lefts, rights = zip(*EDGE_PAIRS)
        measure = Levenshtein()
        scalar = [measure.get_raw_score(l, r) for l, r in EDGE_PAIRS]
        assert scalar == [two_row_levenshtein(l, r) for l, r in EDGE_PAIRS]
        assert_same(measure.batch_raw_score(lefts, rights), scalar)
        assert_same(
            measure.batch_sim_score(lefts, rights),
            [measure.get_sim_score(l, r) for l, r in EDGE_PAIRS],
        )

    @given(pairs=st.lists(st.tuples(texts, texts), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar_equals_dp(self, pairs):
        lefts, rights = [l for l, _ in pairs], [r for _, r in pairs]
        measure = Levenshtein()
        scalar = [measure.get_raw_score(l, r) for l, r in pairs]
        assert scalar == [two_row_levenshtein(l, r) for l, r in pairs]
        assert_same(measure.batch_raw_score(lefts, rights), scalar)

    @given(
        left=st.text(alphabet="abc", min_size=60, max_size=140),
        right=st.text(alphabet="abc", min_size=60, max_size=140),
    )
    @settings(max_examples=40, deadline=None)
    def test_long_pair_inside_a_short_batch(self, left, right):
        """Past 64 characters on the shorter side the lane kernel hands
        the pair to the scalar recurrence; its neighbours stay batched."""
        lefts, rights = ["kitten", left, "", "flaw"], ["sitting", right, "abc", "lawn"]
        expected = [two_row_levenshtein(l, r) for l, r in zip(lefts, rights)]
        assert expected[0] == 3 and expected[3] == 2
        measure = Levenshtein()
        assert [measure.get_raw_score(l, r) for l, r in zip(lefts, rights)] == expected
        assert_same(measure.batch_raw_score(lefts, rights), expected)

    def test_empty_batch(self):
        assert Levenshtein().batch_raw_score([], []).tolist() == []
        assert Levenshtein().batch_sim_score([], []).tolist() == []


@pytest.mark.parametrize("measure", [Jaro(), JaroWinkler(), JaroWinkler(prefix_weight=0.25)])
class TestJaroFamily:
    def test_edge_pairs(self, measure, budgets):
        lefts, rights = zip(*EDGE_PAIRS)
        assert_same(
            measure.batch_raw_score(lefts, rights),
            [measure.get_raw_score(l, r) for l, r in EDGE_PAIRS],
        )

    @given(pairs=st.lists(st.tuples(texts, texts), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar(self, measure, pairs):
        lefts, rights = [l for l, _ in pairs], [r for _, r in pairs]
        assert_same(
            measure.batch_sim_score(lefts, rights),
            [measure.get_sim_score(l, r) for l, r in pairs],
        )

    def test_empty_batch(self, measure):
        assert measure.batch_raw_score([], []).tolist() == []

    def test_right_side_at_and_past_a_lane(self, measure):
        """A right side of 64 characters fills one lane, whatever the left
        side's length; one of 65 takes the scalar form, counted per pair."""
        pairs = [
            ("ab" * 40, "ba" * 32),
            ("b" + "a" * 70, "a" * 64),
            ("a" * 64, "a" * 65),
            ("abc", "c" + "ab" * 32),
            ("", "a" * 65),
        ]
        with use_registry() as registry:
            scores = measure.batch_raw_score([l for l, _ in pairs], [r for _, r in pairs])
            counted = registry.counters()
        assert_same(scores, [measure.get_raw_score(l, r) for l, r in pairs])
        assert counted == {
            ("feature_scalar_fallback_pairs_total", (("reason", "long_string"),)): 3
        }


tokens = st.lists(st.text(alphabet="ab\u0301" + "\u0130".lower(), max_size=5), max_size=5)


class TestMongeElkan:
    def test_edge_token_lists(self, budgets):
        sides = [
            [], [""], ["a"], ["a", "a"], ["ab", "ba", "abab"], ["a" * 70, "b"], ["x"] * 9,
            ["ab", "x", "ab"], ["", "ab", ""],
        ]
        pairs = [(left, right) for left in sides for right in sides]
        measure = MongeElkan()
        assert_same(
            measure.batch_raw_score([l for l, _ in pairs], [r for _, r in pairs]),
            [measure.get_raw_score(l, r) for l, r in pairs],
        )

    @given(pairs=st.lists(st.tuples(tokens, tokens), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar(self, pairs):
        measure = MongeElkan()
        assert_same(
            measure.batch_raw_score([l for l, _ in pairs], [r for _, r in pairs]),
            [measure.get_raw_score(l, r) for l, r in pairs],
        )

    def test_many_chunks(self, monkeypatch):
        """A batch wide enough to cut the token cross product many times,
        with the left-to-right sum exposed: thirds do not add exactly."""
        monkeypatch.setattr(hybrid, "CHUNK_CELLS", 64)
        words = ["brand", "brnad", "type", "typo", "blue", "bleu", "x", "grande", "garden"]
        rng = np.random.default_rng(0)
        sides = [
            [words[i] for i in rng.integers(0, len(words), rng.integers(1, 8))] for _ in range(400)
        ]
        lefts, rights = sides[:200], sides[200:]
        measure = MongeElkan()
        assert_same(
            measure.batch_raw_score(lefts, rights),
            [measure.get_raw_score(l, r) for l, r in zip(lefts, rights)],
        )

    def test_exact_partners_are_not_scored(self, monkeypatch):
        """A left token with an equal token in the right bag scores 1.0
        without a kernel call (repeats included): only the others' token
        pairs reach the Jaro-Winkler lanes."""
        scored = []
        lanes = edit_based._jaro_steps

        def counting(vocabulary, left_ids, right_ids):
            scored.extend(zip(left_ids.tolist(), right_ids.tolist()))
            return lanes(vocabulary, left_ids, right_ids)

        monkeypatch.setattr(edit_based, "_jaro_steps", counting)
        lefts = [["ab", "cd", "ab"], ["x", "y"], ["ab"], []]
        rights = [["cd", "ab"], ["y", "x", "x"], ["ba", "cd"], ["ab"]]
        measure = MongeElkan()
        assert_same(
            measure.batch_raw_score(lefts, rights),
            [measure.get_raw_score(l, r) for l, r in zip(lefts, rights)],
        )
        # Tokens number ab, cd, x, y, ba: only ("ab", "ba") and ("ab", "cd").
        assert sorted(scored) == [(0, 1), (0, 4)]

    def test_custom_secondary_has_no_batched_twin(self):
        measure = MongeElkan(sim_func=lambda a, b: float(a == b))
        assert measure.get_raw_score(["a", "b"], ["b"]) == 0.5
        with pytest.raises(ConfigurationError, match="sim_func"):
            measure.batch_raw_score([["a", "b"]], [["b"]])


TOKEN_MEASURES = [
    (Jaccard(), "jaccard"),
    (Cosine(), "cosine"),
    (Dice(), "dice"),
    (OverlapCoefficient(), "overlap_coefficient"),
]
cells = st.one_of(
    st.none(), st.just(""), st.just("  "), st.just(float("nan")), st.integers(0, 3),
    st.sampled_from([1, 1.0, True, "1", -0.0]),
    # NUL, a non-BMP code point and the q-gram pad characters inside values
    st.text(alphabet="ab 1\u0130\x00\U0001d518#$", max_size=8),
)


class TestTokenMeasures:
    @pytest.mark.parametrize("measure,name", TOKEN_MEASURES)
    @given(
        sizes=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
                lambda lr: st.tuples(st.just(lr[0]), st.just(lr[1]), st.integers(0, min(lr)))
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_scores_arrays_equals_scalar(self, measure, name, sizes):
        """Every (|L|, |R|, |L & R|) combination, both-empty and
        one-empty included, through the one array definition."""
        scalar = [
            measure.get_raw_score(
                {f"s{k}" for k in range(shared)} | {f"l{k}" for k in range(left - shared)},
                {f"s{k}" for k in range(shared)} | {f"r{k}" for k in range(right - shared)},
            )
            for left, right, shared in sizes
        ]
        left, right, shared = (np.array(column, np.int64) for column in zip(*sizes))
        assert_same(scores_arrays(name, shared, left, right), [float(v) for v in scalar])

    @pytest.mark.parametrize("measure,_name", TOKEN_MEASURES)
    @pytest.mark.parametrize(
        "tokenizer",
        [
            WhitespaceTokenizer(return_set=True),
            WhitespaceTokenizer(),
            QgramTokenizer(q=3, return_set=True),
            QgramTokenizer(q=2, padding=False),  # strings shorter than q have no grams
            AlphabeticTokenizer(),
            DelimiterTokenizer({",", " "}),  # its spec() holds a list
        ],
    )
    @given(pairs=st.lists(st.tuples(cells, cells), max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_feature_batch_equals_scalar(self, measure, _name, tokenizer, pairs):
        feature = make_token_feature("f", "v", "v", tokenizer, measure, "m")
        lefts, rights = [l for l, _ in pairs], [r for _, r in pairs]
        batched = feature.batch(lefts, rights).tolist()
        scalar = [feature(l, r) for l, r in pairs]
        assert [repr(v) for v in batched] == [repr(v) for v in scalar]

    @pytest.mark.parametrize("measure,_name", TOKEN_MEASURES)
    @given(
        l_cells=st.lists(cells, min_size=1, max_size=8),
        r_cells=st.lists(cells, min_size=1, max_size=8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_extraction_over_two_attributes_equals_scalar(self, measure, _name, l_cells, r_cells,
                                                          seed):
        """``l_attr != r_attr`` through ``extract_feature_vecs``: the store
        encodes each side's own column, and a repeated candset row and
        value are scored once."""
        import random

        from repro.blocking import make_candset
        from repro.catalog import Catalog
        from repro.features import FeatureTable, extract_feature_vecs
        from repro.index import IndexStore, use_index_store
        from repro.table import Table

        ltable = Table({"id": [f"a{i}" for i in range(len(l_cells))], "name": l_cells})
        rtable = Table({"id": [f"b{i}" for i in range(len(r_cells))], "title": r_cells})
        rng = random.Random(seed)
        pairs = [(rng.choice(ltable["id"]), rng.choice(rtable["id"])) for _ in range(12)]
        catalog = Catalog()
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)
        features = FeatureTable([
            make_token_feature("ws", "name", "title", WhitespaceTokenizer(return_set=True),
                               measure, "m"),
            make_token_feature("q3", "name", "title", QgramTokenizer(q=3), measure, "m"),
        ])
        with use_index_store(IndexStore()):
            fv = extract_feature_vecs(candset, features, catalog=catalog)
        rows = ltable.index_by("id"), rtable.index_by("id")
        for feature in features:
            expected = [feature(rows[0][l]["name"], rows[1][r]["title"]) for l, r in pairs]
            assert [repr(v) for v in fv[feature.name]] == [repr(v) for v in expected]

    @pytest.mark.parametrize("n_pairs", [2, 40])
    def test_a_few_referenced_rows_are_all_that_is_tokenized(self, n_pairs):
        """Pairs touching under a quarter of a side's rows view just those
        rows, so the store tokenizes what the candset references; more
        view the whole column, whose artifact a blocker's view of it then
        reads.  Both give the scalar scores."""
        import random

        from repro.blocking import make_candset, text_view
        from repro.blocking.base import TEXT
        from repro.catalog import Catalog
        from repro.features import FeatureTable, extract_feature_vecs
        from repro.index import use_index_store
        from repro.table import Table

        words = ["ab", "b a", None, "ba ab", "a", 3, "", "aab b"]
        ltable = Table({"id": list(range(80)), "v": [words[i % 8] for i in range(80)]})
        rtable = Table({"id": list(range(60)), "v": [words[i % 7] for i in range(60)]})
        rng = random.Random(n_pairs)
        pairs = sorted({(rng.randrange(80), rng.randrange(60)) for _ in range(n_pairs)})
        catalog = Catalog()
        candset = make_candset(pairs, ltable, rtable, "id", "id", catalog=catalog)

        class Counting(WhitespaceTokenizer):
            calls = 0

            def tokenize(self, text):
                Counting.calls += 1
                return super().tokenize(text)

        feature = make_token_feature("f", "v", "v", Counting(), Jaccard(), "m")
        with use_index_store() as store:
            fv = extract_feature_vecs(candset, FeatureTable([feature]), catalog=catalog)
            extracted = Counting.calls
            store.tokenized_column(text_view(ltable, "id", ["v"]), "id", TEXT, Counting())
        assert (Counting.calls == extracted) == (n_pairs == 40)
        if n_pairs == 2:
            assert extracted <= len({l for l, _ in pairs}) + len({r for _, r in pairs})
        expected = [feature(ltable["v"][l], rtable["v"][r]) for l, r in pairs]
        assert [repr(v) for v in fv["f"]] == [repr(v) for v in expected]

    def test_a_present_cell_printing_blank_is_scored_by_the_scalar_function(self):
        """A non-``str`` cell whose text is blank is not missing, yet the
        store keeps no record of it: its pairs take the scalar path."""

        class Blank:
            def __str__(self):
                return " "

        feature = make_token_feature("f", "v", "v", QgramTokenizer(q=2), Jaccard(), "m")
        lefts, rights = [Blank(), "a b", Blank()], ["a b", Blank(), None]
        with use_registry() as registry:
            batched = feature.batch(lefts, rights).tolist()
            fallbacks = registry.counters()
        assert [repr(v) for v in batched] == [repr(feature(l, r)) for l, r in zip(lefts, rights)]
        assert fallbacks[
            ("feature_scalar_fallback_pairs_total", (("reason", "blank_text"),))
        ] == 2

    def test_unknown_measure_has_no_batch_form(self):
        from repro.text.sim import TverskyIndex

        feature = make_token_feature("f", "v", "v", WhitespaceTokenizer(), TverskyIndex(), "m")
        assert feature.batch is None


def prenumbered(pairs, extra=()):
    """A caller's own numbering of ``pairs``: a string list holding ``extra``
    (never referenced) and then every pair's two sides, repeats kept, and
    the ids of each pair's sides in it."""
    strings = [*extra, *(side for pair in pairs for side in pair)]
    left = np.arange(len(extra), len(strings), 2, dtype=np.int64)
    return strings, left, left + 1


class TestPreNumberedEntryPoints:
    """``sim_score_ids`` / ``raw_score_ids`` take strings the caller already
    numbered; each returns ``==`` the ``batch_*`` twin and the scalar form."""

    @pytest.mark.parametrize("measure", [Levenshtein(), Jaro(), JaroWinkler()])
    def test_edge_pairs(self, measure, budgets):
        strings, left, right = prenumbered(EDGE_PAIRS, extra=["zz", "a" * 80])
        scalar = [measure.get_sim_score(l, r) for l, r in EDGE_PAIRS]
        assert_same(measure.sim_score_ids(strings, left, right), scalar)
        assert_same(measure.batch_sim_score(*zip(*EDGE_PAIRS)), scalar)

    @pytest.mark.parametrize("measure", [Levenshtein(), JaroWinkler()])
    @given(pairs=st.lists(st.tuples(texts, texts), max_size=30), extra=st.lists(texts, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_any_numbering(self, measure, pairs, extra):
        strings, left, right = prenumbered(pairs, extra)
        scalar = [measure.get_sim_score(l, r) for l, r in pairs]
        assert_same(measure.sim_score_ids(strings, left, right), scalar)
        assert_same(measure.batch_sim_score([l for l, _ in pairs], [r for _, r in pairs]), scalar)

    def test_levenshtein_lane_fallback_by_id(self):
        """Past 64 characters on the shorter side the pair is looked up by
        id and scored by the scalar recurrence, counted once per pair."""
        pairs = [("a" * 70, "b" + "a" * 69), ("kitten", "sitting"), ("x" * 65, "x" * 66)]
        strings, left, right = prenumbered(pairs, extra=["a" * 100])
        measure = Levenshtein()
        with use_registry() as registry:
            scores = measure.sim_score_ids(strings, left, right)
            counted = registry.counters()
        assert_same(scores, [measure.get_sim_score(l, r) for l, r in pairs])
        assert sum(
            value for (name, labels), value in counted.items()
            if name == "feature_scalar_fallback_pairs_total" and ("reason", "long_string") in labels
        ) == 2

    @pytest.mark.parametrize("measure", [Levenshtein(), JaroWinkler()])
    def test_wide_alphabet_table_stays_in_its_budget(self, measure):
        """2,200 distinct code points (700 outside the BMP) make each
        pattern's table row 17.6 KB: one table over all 1,000 patterns
        would take 17.6 MB, over four times ``STEP_BYTES``.  Steps cut by
        that product keep one call's traced peak under the budget plus
        the peak of encoding the call's 60k characters."""
        import tracemalloc

        rng = np.random.default_rng(3)
        alphabet = [chr(c) for c in range(0x4E00, 0x4E00 + 1500)]
        alphabet += [chr(c) for c in range(0x1F300, 0x1F300 + 700)]
        strings = ["".join(rng.choice(alphabet, 30)) for _ in range(2000)]
        left, right = np.arange(0, 2000, 2), np.arange(1, 2000, 2)
        assert len(set("".join(strings))) == 2200
        tracemalloc.start()
        try:
            edit_based.encode(strings)
            encoding = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            scores = measure.sim_score_ids(strings, left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < edit_based.STEP_BYTES + encoding
        assert_same(scores, [measure.get_sim_score(strings[l], strings[r])
                             for l, r in zip(left, right)])

    def test_monge_elkan(self, budgets):
        sides = [
            (), ("",), ("a",), ("a", "a"), ("ab", "ba", "abab"), ("a" * 70, "b"), ("x",) * 9,
            ("ab", "x", "ab"), ("", "ab", ""),
        ]
        pairs = [(left, right) for left in sides for right in sides]
        lists, left, right = prenumbered(pairs, extra=[("unused",)])
        measure = MongeElkan()
        scalar = [measure.get_raw_score(l, r) for l, r in pairs]
        assert_same(measure.raw_score_ids(lists, left, right), scalar)
        assert_same(measure.batch_raw_score([l for l, _ in pairs], [r for _, r in pairs]), scalar)

    @given(pairs=st.lists(st.tuples(texts, texts), max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_monge_elkan_on_words(self, pairs):
        """The generated ``monge_elkan`` feature's measure: whitespace words."""
        strings, left, right = prenumbered(pairs)
        measure = _MongeElkanOnWords()
        assert_same(
            measure.sim_score_ids(strings, left, right),
            [measure.get_sim_score(l, r) for l, r in pairs],
        )


# Cells the exact and numeric features must read as the scalars do:
# strings float() takes as NaN / inf, an int past the float range, a
# Decimal unequal to itself (one object, so also paired with itself),
# case variants, a number beside its text, unhashable cells.
ODD_CELLS = [
    None, "", "  ", float("nan"), "nan", "inf", "-inf", "1e400", 10**400, Decimal("NaN"),
    Decimal("1.5"), "1.5", 1.5, " 1.5 ", 1, 1.0, True, 0.0, -0.0, "Dave", "dave", "x",
    ["x"], (["x"],), ("x",),
]
odd_cells = st.one_of(
    st.sampled_from(ODD_CELLS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
)


class TestExactAndNumericBatchForms:
    @given(pairs=st.lists(st.tuples(odd_cells, odd_cells), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_scalar(self, pairs):
        lefts, rights = [l for l, _ in pairs], [r for _, r in pairs]
        for feature in (
            make_exact_feature("f", "v", "v"),
            make_numeric_feature("f", "v", "v", abs_norm, "abs_norm"),
            make_numeric_feature("f", "v", "v", rel_diff, "rel_diff"),
        ):
            batched = feature.batch(lefts, rights).tolist()
            assert [repr(v) for v in batched] == [repr(feature(l, r)) for l, r in pairs]

    def test_a_cell_unequal_to_itself_gets_its_own_key(self):
        """``Decimal("NaN") != Decimal("NaN")`` even as one object, which a
        dict would merge by identity."""
        nan = Decimal("NaN")
        feature = make_exact_feature("f", "v", "v")
        assert feature(nan, nan) == 0.0
        assert feature.batch([nan, nan, "nan"], [nan, "NaN", "NaN"]).tolist() == [0.0, 0.0, 1.0]

    def test_exact_counts_unhashable_pairs_as_scalar(self):
        feature = make_exact_feature("f", "v", "v")
        with use_registry() as registry:
            scores = feature.batch([["x"], "a", ["x"]], [["x"], "A", None]).tolist()
            counted = registry.counters()
        assert [repr(v) for v in scores] == ["1.0", "1.0", "nan"]
        assert counted == {
            ("feature_scalar_fallback_pairs_total", (("reason", "unhashable"),)): 2
        }

    def test_a_custom_numeric_measure_has_no_batch_form(self):
        feature = make_numeric_feature("f", "v", "v", lambda a, b: 0.0, "custom")
        assert feature.batch is None
