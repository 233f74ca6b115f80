"""Tests for the metadata catalog and self-containment checks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    StaleMetadataWarning,
    check_fk_constraint,
    get_catalog,
    reset_catalog,
    validate_candset,
)
from repro.catalog.catalog import Catalog
from repro.catalog.checks import resolve_candset
from repro.exceptions import (
    CatalogError,
    ForeignKeyConstraintError,
    KeyConstraintError,
)
from repro.table import Table


def make_tables():
    ltable = Table({"id": ["a1", "a2"], "v": ["x", "y"]})
    rtable = Table({"id": ["b1", "b2"], "v": ["x", "z"]})
    candset = Table(
        {"_id": [0, 1], "ltable_id": ["a1", "a2"], "rtable_id": ["b1", "b2"]}
    )
    return ltable, rtable, candset


class TestKeys:
    def test_set_get_key(self):
        catalog = Catalog()
        table = Table({"id": [1, 2]})
        catalog.set_key(table, "id")
        assert catalog.get_key(table) == "id"

    def test_set_key_validates(self):
        catalog = Catalog()
        with pytest.raises(KeyConstraintError):
            catalog.set_key(Table({"id": [1, 1]}), "id")

    def test_get_key_missing_raises(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.get_key(Table({"id": [1]}))

    def test_get_key_default(self):
        catalog = Catalog()
        assert catalog.get_key(Table({"id": [1]}), default=None) is None

    def test_global_catalog_reset(self):
        table = Table({"id": [1]})
        get_catalog().set_key(table, "id")
        assert len(get_catalog()) == 1
        reset_catalog()
        assert len(get_catalog()) == 0

    def test_weak_references(self):
        catalog = Catalog()
        table = Table({"id": [1]})
        catalog.set_key(table, "id")
        assert len(catalog) == 1
        del table
        import gc

        gc.collect()
        assert len(catalog) == 0


class TestProperties:
    def test_set_get_property(self):
        catalog = Catalog()
        table = Table({"id": [1]})
        catalog.set_property(table, "source", "walmart")
        assert catalog.get_property(table, "source") == "walmart"

    def test_get_property_missing(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.get_property(Table({"id": [1]}), "nope")
        assert catalog.get_property(Table({"id": [1]}), "nope", default=3) == 3


class TestCandsetMetadata:
    def test_round_trip(self):
        catalog = Catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        meta = catalog.get_candset_metadata(candset)
        assert meta.is_candset()
        assert meta.ltable is ltable

    def test_incomplete_metadata_raises(self):
        catalog = Catalog()
        table = Table({"_id": [0]})
        catalog.set_key(table, "_id")
        with pytest.raises(CatalogError, match="candidate-set"):
            catalog.get_candset_metadata(table)

    def test_copy_metadata(self):
        catalog = Catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        clone = candset.copy()
        catalog.copy_metadata(candset, clone)
        assert catalog.get_candset_metadata(clone).fk_ltable == "ltable_id"

    def test_copy_metadata_requires_source(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.copy_metadata(Table({"id": [1]}), Table({"id": [1]}))


class TestSelfContainment:
    """The paper's scenario: a tool checks FK constraints before trusting them."""

    def test_fk_constraint_holds(self):
        ltable, _, candset = make_tables()
        check_fk_constraint(candset, "ltable_id", ltable, "id")

    def test_fk_constraint_dangling(self):
        ltable, _, candset = make_tables()
        # Another tool removed a tuple from A without telling the catalog.
        shrunk = ltable.select(lambda row: row["id"] != "a2")
        with pytest.raises(ForeignKeyConstraintError, match="no matching"):
            check_fk_constraint(candset, "ltable_id", shrunk, "id")

    def test_validate_candset_ok(self):
        catalog = get_catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        meta = validate_candset(candset)
        assert meta.fk_rtable == "rtable_id"

    def test_validate_candset_strict_raises_on_stale(self):
        catalog = get_catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        # Mutate A in place: drop a referenced row (stale metadata now).
        ltable.add_column("id", ["a1", "zzz"])
        with pytest.raises(ForeignKeyConstraintError):
            validate_candset(candset, strict=True)

    def test_validate_candset_lenient_warns(self):
        catalog = get_catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        ltable.add_column("id", ["a1", "zzz"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_candset(candset, strict=False)
        assert any(issubclass(w.category, StaleMetadataWarning) for w in caught)

    @pytest.mark.parametrize(
        "column, value, error",
        [("base key", ["a1"], KeyConstraintError), ("fk", ["a1"], ForeignKeyConstraintError)],
    )
    def test_unhashable_values_are_typed_faults(self, column, value, error):
        """An unhashable base key or FK value is a broken constraint like
        any other: ``strict=False`` warns and continues."""
        catalog = get_catalog()
        ltable, rtable, candset = make_tables()
        catalog.set_key(ltable, "id")
        catalog.set_key(rtable, "id")
        catalog.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        if column == "base key":
            ltable.add_column("id", [value, "a2"])
        else:
            candset.add_column("ltable_id", [value, "a2"])
        with pytest.raises(error, match="unhashable"):
            validate_candset(candset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            meta = validate_candset(candset, strict=False)
        assert meta.ltable is ltable
        assert [w.category for w in caught] == [StaleMetadataWarning]
        assert "unhashable" in str(caught[0].message)


# ---------------------------------------------------------------------------
# resolve_candset against the two-step resolution it replaced
# ---------------------------------------------------------------------------
def _two_step_validate_key(table, name):
    values = table.column(name)
    if any(v is None for v in values):
        raise KeyConstraintError(f"key column {name!r} contains missing values")
    try:
        distinct = set(values)
    except TypeError:
        raise KeyConstraintError(f"key column {name!r} contains unhashable values") from None
    if len(distinct) != len(values):
        raise KeyConstraintError(f"key column {name!r} contains duplicates")


def _two_step_check(candset, cat):
    """``validate_candset``'s checks as a set per side: candset key, then
    each side's parent key and FKs."""
    meta = cat.get_candset_metadata(candset)
    _two_step_validate_key(candset, meta.key)
    for fk, parent in ((meta.fk_ltable, meta.ltable), (meta.fk_rtable, meta.rtable)):
        key = cat.get_key(parent)
        _two_step_validate_key(parent, key)
        parent_keys = set(parent.column(key))
        try:
            dangling = [v for v in candset.column(fk) if v not in parent_keys]
        except TypeError:
            raise ForeignKeyConstraintError(
                f"{fk!r} contains unhashable values, which match no {key!r} "
                "in the parent table"
            ) from None
        if dangling:
            raise ForeignKeyConstraintError(
                f"{len(dangling)} value(s) in {fk!r} have no matching "
                f"{key!r} in the parent table (e.g. {dangling[:3]})"
            )
    return meta


def _two_step_resolve(candset, cat):
    """The checks, then a second ``{key: row}`` map per side."""
    meta = _two_step_check(candset, cat)
    positions = []
    for fk, parent in ((meta.fk_ltable, meta.ltable), (meta.fk_rtable, meta.rtable)):
        key = cat.get_key(parent)
        _two_step_validate_key(parent, key)
        position = dict(zip(parent.column(key), range(parent.num_rows)))
        fks = candset.column(fk)
        positions.append(np.fromiter(map(position.__getitem__, fks), np.int64, len(fks)))
    return (meta, *positions)


_NAN = float("nan")
#: Valid keys, some equal under dict equality (1 == 1.0 == True), a NaN
#: equal only to itself and a fresh NaN per draw ...
_GOOD_KEYS = st.one_of(
    st.sampled_from(["a", "b", 0, 1, 1.0, True, 2, _NAN]), st.builds(float, st.just("nan"))
)
#: ... and the bad ones: None and an unhashable list.
_KEYS = st.one_of(_GOOD_KEYS, st.just(None), st.just(["a"]))


#: One in four draws takes the branch that may break a constraint.
_RARELY = st.sampled_from([False, False, False, True])


@st.composite
def _stale_candsets(draw):
    """A candset over two base tables, its metadata recorded without the
    checks ``set_candset_metadata`` runs, so any key or FK may be bad."""
    n = draw(st.integers(0, 5))
    tables = []
    for _ in range(2):
        keys = st.lists(_KEYS, max_size=5) if draw(_RARELY) else st.lists(
            _GOOD_KEYS, max_size=5, unique=True
        )
        keys = draw(keys)
        tables.append(Table({"id": keys, "v": list(range(len(keys)))}))
    fks = []
    for table in tables:
        values = st.sampled_from(table.column("id")) if table.num_rows else _KEYS
        if draw(_RARELY):
            values = st.one_of(values, _KEYS)
        fks.append(draw(st.lists(values, min_size=n, max_size=n)))
    ids = list(range(n))
    if draw(_RARELY):
        ids = draw(st.lists(st.sampled_from([0, 1, 2, None]), min_size=n, max_size=n))
    candset = Table({"_id": ids, "ltable_id": fks[0], "rtable_id": fks[1]})
    cat = Catalog()
    for table in tables:
        cat.metadata_for(table).key = "id"
    entry = cat.metadata_for(candset)
    entry.key, entry.fk_ltable, entry.fk_rtable = "_id", "ltable_id", "rtable_id"
    entry.ltable, entry.rtable = tables
    return candset, cat


def _outcome(call):
    """``call()``'s result, positions as lists, or its error's class and
    message."""
    try:
        result = call()
    except (KeyConstraintError, ForeignKeyConstraintError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        meta, l_pos, r_pos = result
        return meta, l_pos.tolist(), r_pos.tolist()
    return result


def _lenient_outcome(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def _two_step_lenient(candset, cat):
    try:
        _two_step_check(candset, cat)
    except (ForeignKeyConstraintError, KeyConstraintError) as exc:
        warnings.warn(f"candidate-set metadata is stale: {exc}", StaleMetadataWarning)
    return cat.get_candset_metadata(candset)


class TestResolveCandset:
    @settings(max_examples=300, deadline=None)
    @given(_stale_candsets())
    def test_matches_two_step_oracle(self, drawn):
        candset, cat = drawn
        expected = _outcome(lambda: _two_step_resolve(candset, cat))
        assert _outcome(lambda: resolve_candset(candset, cat)) == expected
        assert _outcome(lambda: validate_candset(candset, cat)) == _outcome(
            lambda: _two_step_check(candset, cat)
        )
        assert _lenient_outcome(lambda: validate_candset(candset, cat, strict=False)) == (
            _lenient_outcome(lambda: _two_step_lenient(candset, cat))
        )

    def test_valid_candset_positions(self):
        cat = get_catalog()
        ltable, rtable, candset = make_tables()
        cat.set_key(ltable, "id")
        cat.set_key(rtable, "id")
        cat.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        meta, l_pos, r_pos = resolve_candset(candset)
        assert meta.ltable is ltable
        assert l_pos.tolist() == [0, 1] and r_pos.tolist() == [0, 1]

    def test_hashes_each_key_and_fk_value_once(self):
        class CountedKey:
            def __init__(self, value):
                self.value, self.hashes = value, 0

            def __hash__(self):
                self.hashes += 1
                return hash(self.value)

            def __eq__(self, other):
                return isinstance(other, CountedKey) and self.value == other.value

        l_keys = [CountedKey(i) for i in range(5)]
        r_keys = [CountedKey(i) for i in range(4)]
        pairs = [(0, 3), (4, 0), (2, 2), (2, 1), (1, 3), (3, 0)]
        fks = [[CountedKey(l) for l, _ in pairs], [CountedKey(r) for _, r in pairs]]
        ltable, rtable = Table({"id": l_keys}), Table({"id": r_keys})
        candset = Table({"_id": list(range(len(pairs))), "ltable_id": fks[0], "rtable_id": fks[1]})
        cat = Catalog()
        cat.set_key(ltable, "id")
        cat.set_key(rtable, "id")
        cat.set_candset_metadata(candset, "_id", "ltable_id", "rtable_id", ltable, rtable)
        for key in l_keys + r_keys + fks[0] + fks[1]:
            key.hashes = 0
        _, l_pos, r_pos = resolve_candset(candset, cat)
        assert list(zip(l_pos.tolist(), r_pos.tolist())) == pairs
        assert [key.hashes for key in l_keys + r_keys] == [1] * 9
        assert [key.hashes for key in fks[0] + fks[1]] == [1] * 12
