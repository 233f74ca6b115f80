"""Tests for the filtered similarity joins: filters and equivalence with
the brute-force reference implementation."""

import math
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.index import IndexStore, use_index_store
from repro.obs import use_registry
from repro.perf import parallel_map_partitions
from repro.simjoin import (
    TokenOrder,
    edit_distance_join,
    naive_set_sim_join,
    overlap_lower_bound,
    prefix_length,
    set_sim_join,
    similarity,
    size_bounds,
)
from repro.table import Table
from repro.text.sim import Levenshtein
from repro.text.tokenizers import QgramTokenizer, WhitespaceTokenizer


class TestFilters:
    def test_size_bounds_jaccard(self):
        lower, upper = size_bounds("jaccard", 0.8, 10)
        assert lower == 8
        assert upper == pytest.approx(12.5)

    def test_size_bounds_cosine(self):
        lower, upper = size_bounds("cosine", 0.5, 8)
        assert lower == 2
        assert upper == 32.0

    def test_size_bounds_dice(self):
        lower, upper = size_bounds("dice", 0.8, 12)
        assert lower == 8
        assert upper == pytest.approx(18.0)

    def test_size_bounds_overlap(self):
        lower, upper = size_bounds("overlap", 3, 10)
        assert lower == 3
        assert upper == math.inf

    def test_overlap_lower_bound_jaccard(self):
        # jaccard >= 0.5 over sizes 4 and 4 requires overlap >= 8/3 -> 3
        assert overlap_lower_bound("jaccard", 0.5, 4, 4) == 3

    def test_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            size_bounds("euclid", 0.5, 4)

    def test_prefix_length_zero_size(self):
        assert prefix_length("jaccard", 0.5, 0) == 0

    def test_prefix_length_bounded_by_size(self):
        for size in range(1, 20):
            length = prefix_length("jaccard", 0.7, size)
            assert 0 <= length <= size

    def test_similarity_verification(self):
        assert similarity("jaccard", {"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
        assert similarity("overlap", {"a", "b"}, {"b"}) == 1.0
        assert similarity("jaccard", set(), set()) == 1.0
        assert similarity("overlap", set(), set()) == 0.0

    def test_token_order_rare_first(self):
        order = TokenOrder([["common", "rare"], ["common"], ["common", "x"]])
        ordered = order.order(["common", "rare"])
        assert ordered[0] == "rare"

    def test_token_order_unknown_tokens_first(self):
        order = TokenOrder([["a", "a"], ["a"]])
        assert order.order(["a", "never_seen"])[0] == "never_seen"


def _random_tables(seed: int, n: int = 60):
    rng = random.Random(seed)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]

    def sentence():
        return " ".join(rng.sample(words, rng.randrange(1, 6)))

    ltable = Table({"id": [f"a{i}" for i in range(n)], "v": [sentence() for _ in range(n)]})
    rtable = Table({"id": [f"b{i}" for i in range(n)], "v": [sentence() for _ in range(n)]})
    return ltable, rtable


def _pairs(result):
    return set(zip(result.column("l_id"), result.column("r_id")))


class TestSetSimJoin:
    @pytest.mark.parametrize("measure,threshold", [
        ("jaccard", 0.5),
        ("jaccard", 0.8),
        ("cosine", 0.6),
        ("dice", 0.7),
        ("overlap", 2),
    ])
    def test_matches_naive(self, measure, threshold):
        ltable, rtable = _random_tables(seed=hash((measure, threshold)) % 1000)
        tokenizer = WhitespaceTokenizer(return_set=True)
        fast = set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold)
        slow = naive_set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, measure, threshold)
        assert _pairs(fast) == _pairs(slow)

    def test_no_prefix_filter_same_result(self):
        # At overlap >= 1 every record is its own prefix: nothing is
        # filtered, and the kernel reads overlaps off the candidate product.
        ltable, rtable = _random_tables(seed=5)
        tokenizer = WhitespaceTokenizer(return_set=True)
        without = set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, "overlap", 1)
        naive = naive_set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, "overlap", 1)
        assert without.num_rows and without == naive

    @pytest.mark.parametrize("measure", ["jaccard", "dice"])
    def test_threshold_near_zero_matches_naive(self, measure):
        # A rule's complement "jaccard > 0" runs at 1e-9: the partner-size
        # window is then unbounded, and the overlap bound is computed per
        # pair instead of tabulated.
        ltable, rtable = _random_tables(seed=3, n=20)
        tokenizer = WhitespaceTokenizer(return_set=True)
        fast = set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, measure, 1e-9)
        slow = naive_set_sim_join(ltable, rtable, "id", "id", "v", "v", tokenizer, measure, 1e-9)
        assert fast.num_rows and fast == slow

    def test_scores_meet_threshold(self):
        ltable, rtable = _random_tables(seed=9)
        result = set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            WhitespaceTokenizer(return_set=True), "jaccard", 0.5,
        )
        assert all(score >= 0.5 for score in result.column("score"))

    def test_missing_values_skipped(self):
        ltable = Table({"id": [1, 2], "v": [None, "x y"]})
        rtable = Table({"id": [3], "v": ["x y"]})
        result = set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            WhitespaceTokenizer(return_set=True), "jaccard", 0.5,
        )
        assert _pairs(result) == {(2, 3)}

    def test_empty_output_schema(self):
        ltable = Table({"id": [1], "v": ["aa"]})
        rtable = Table({"id": [2], "v": ["zz"]})
        result = set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            WhitespaceTokenizer(return_set=True), "jaccard", 0.9,
        )
        assert result.num_rows == 0
        assert result.columns == ["_id", "l_id", "r_id", "score"]

    def test_invalid_threshold(self):
        ltable, rtable = _random_tables(seed=1, n=3)
        with pytest.raises(ConfigurationError):
            set_sim_join(
                ltable, rtable, "id", "id", "v", "v",
                WhitespaceTokenizer(return_set=True), "jaccard", 1.5,
            )
        with pytest.raises(ConfigurationError):
            set_sim_join(
                ltable, rtable, "id", "id", "v", "v",
                WhitespaceTokenizer(return_set=True), "overlap", 0.5,
            )
        # No bound can be computed from a non-finite threshold.
        for measure in ("overlap", "jaccard"):
            for not_finite in (float("nan"), float("inf")):
                with pytest.raises(ConfigurationError):
                    set_sim_join(
                        ltable, rtable, "id", "id", "v", "v",
                        WhitespaceTokenizer(return_set=True), measure, not_finite,
                    )

    def test_qgram_join(self):
        ltable = Table({"id": [1], "v": ["wisconsin"]})
        rtable = Table({"id": [2, 3], "v": ["wisconsim", "california"]})
        result = set_sim_join(
            ltable, rtable, "id", "id", "v", "v",
            QgramTokenizer(q=3, return_set=True), "jaccard", 0.5,
        )
        assert _pairs(result) == {(1, 2)}


class TestEditDistanceJoin:
    def test_finds_close_strings(self):
        ltable = Table({"id": [1, 2], "v": ["kitten", "apple"]})
        rtable = Table({"id": [3, 4], "v": ["sitting", "orange"]})
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=3)
        assert _pairs(result) == {(1, 3)}
        assert result.column("score") == [3]

    def test_matches_naive_levenshtein(self):
        ltable, rtable = _random_tables(seed=13, n=40)
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=4)
        measure = Levenshtein()
        expected = set()
        for l_id, l_value in zip(ltable.column("id"), ltable.column("v")):
            for r_id, r_value in zip(rtable.column("id"), rtable.column("v")):
                if measure.get_raw_score(l_value, r_value) <= 4:
                    expected.add((l_id, r_id))
        assert _pairs(result) == expected

    def test_threshold_zero_is_equality(self):
        ltable = Table({"id": [1], "v": ["abc"]})
        rtable = Table({"id": [2, 3], "v": ["abc", "abd"]})
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=0)
        assert _pairs(result) == {(1, 2)}

    def test_short_strings_reachable(self):
        # Strings shorter than q have no q-grams; they must still join.
        ltable = Table({"id": [1], "v": ["a"]})
        rtable = Table({"id": [2], "v": ["ab"]})
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=1, q=2)
        assert _pairs(result) == {(1, 2)}

    def test_negative_threshold(self):
        ltable = Table({"id": [1], "v": ["a"]})
        with pytest.raises(ConfigurationError):
            edit_distance_join(ltable, ltable, "id", "id", "v", "v", threshold=-1)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold(self, threshold):
        # NaN used to pass `threshold < 0` and return nothing; inf, a
        # Levenshtein scan of every pair.
        ltable = Table({"id": [1], "v": ["a"]})
        with pytest.raises(ConfigurationError, match="finite"):
            edit_distance_join(ltable, ltable, "id", "id", "v", "v", threshold=threshold)

    def test_float_threshold_means_distance_at_most(self):
        ltable = Table({"id": [1], "v": ["kitten"]})
        rtable = Table({"id": [2, 3, 4], "v": ["kitten", "mitten", "sitting"]})
        result = edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=1.5)
        assert result == edit_distance_join(ltable, rtable, "id", "id", "v", "v", threshold=1)
        assert result.column("score") == [0, 1]


def dp_levenshtein(a: str, b: str) -> int:
    """Textbook dynamic-programming edit distance: the oracle."""
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        current = [i]
        for j, cb in enumerate(b, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb)))
        previous = current
    return previous[-1]


def brute_force_edit_join(ltable: Table, rtable: Table, threshold: float) -> Table:
    """Every non-missing pair of A x B within ``threshold``, in row order."""
    from repro.table.schema import is_missing

    def present(table):
        return [(k, v) for k, v in zip(table.column("id"), table.column("v")) if not is_missing(v)]

    rows = [
        (l_id, r_id, distance)
        for l_id, l_value in present(ltable)
        for r_id, r_value in present(rtable)
        if (distance := dp_levenshtein(l_value, r_value)) <= threshold
    ]
    return Table({
        "_id": list(range(len(rows))),
        "l_id": [row[0] for row in rows],
        "r_id": [row[1] for row in rows],
        "score": [row[2] for row in rows],
    })


# Astral, combining and NUL code points; "İ".lower() is two code points.
_PIECES = ["a", "b", "c", " ", "\x00", "\U0001d518", "é", "İ".lower()]
# Strings past a 64-bit Levenshtein lane, one edit apart, plus odd singles.
_POOL = ["a" * 70, "a" * 69 + "b", "b" + "a" * 69, "", None, "x", "\x00", "ab" * 3]


@st.composite
def _edit_join_case(draw):
    q = draw(st.integers(1, 3))
    d = draw(st.integers(0, 3))
    vacuous = q - 1 + q * d
    text = st.lists(st.sampled_from(_PIECES), max_size=vacuous + 2).map("".join)
    # Exactly at the bound where the count filter stops asking for a shared gram.
    at_bound = st.lists(st.sampled_from(_PIECES), min_size=vacuous, max_size=vacuous).map(
        lambda pieces: "".join(pieces)[:vacuous]
    )
    values = st.lists(st.one_of(text, at_bound, st.sampled_from(_POOL)), max_size=9)
    left, right = draw(values), draw(values)
    if draw(st.booleans()):
        # Enough probe rows for a 2-worker partition map to fork, and
        # duplicate values.
        left = (left * 64)[: max(64, len(left))] if left else left
    threshold = d + draw(st.sampled_from([0, 0.5]))
    return q, threshold, left, right


def _values_table(prefix: str, values: list) -> Table:
    return Table({"id": [f"{prefix}{i}" for i in range(len(values))], "v": values})


class TestEditDistanceJoinEqualsBruteForce:
    @given(_edit_join_case())
    @settings(max_examples=60, deadline=None)
    def test_serial_parallel_cold_and_disk_warm(self, case):
        q, threshold, left, right = case
        ltable, rtable = _values_table("a", left), _values_table("b", right)
        expected = brute_force_edit_join(ltable, rtable, threshold)

        def join(left_part=ltable):
            return edit_distance_join(
                left_part, rtable, "id", "id", "v", "v", threshold=threshold, q=q
            )

        pairs = ["l_id", "r_id", "score"]  # a partition map restarts ``_id``
        with use_index_store():
            assert join() == expected
            mapped = parallel_map_partitions(ltable, join, n_workers=2)
            assert mapped.project(pairs) == expected.project(pairs)
        with tempfile.TemporaryDirectory() as cache:
            with use_index_store(IndexStore(cache_dir=cache)):
                cold = join()
            with use_registry() as registry, use_index_store(IndexStore(cache_dir=cache)):
                warm = join()
                assert not any(name == "index_builds_total" for name, _ in registry.counters())
        assert cold == warm == expected
        assert all(type(score) is int for score in cold.column("score"))
