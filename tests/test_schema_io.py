"""Tests for type inference and CSV I/O with metadata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import get_catalog
from repro.exceptions import CatalogError
from repro.table import (
    ColumnType,
    Table,
    infer_column_type,
    infer_schema,
    infer_value_type,
    is_missing,
    read_csv,
    read_csv_metadata,
    write_csv,
    write_csv_metadata,
)


class TestMissing:
    @pytest.mark.parametrize("value", [None, float("nan"), "", "   "])
    def test_missing_values(self, value):
        assert is_missing(value)

    @pytest.mark.parametrize("value", [0, 0.0, False, "x", -1])
    def test_present_values(self, value):
        assert not is_missing(value)

    @pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.longdouble])
    def test_numpy_float_nan_is_missing(self, kind):
        """``np.float32`` and ``np.float16`` do not subclass ``float``."""
        assert is_missing(kind("nan"))
        assert not is_missing(kind(1.5))

    def test_a_numpy_nan_cell_has_no_text(self):
        from repro.blocking import text_view
        from repro.blocking.base import TEXT
        from repro.index import IndexStore

        table = Table({"id": [1, 2, 3], "v": [np.float32("nan"), np.float16(2.5), "x"]})
        assert text_view(table, "id", ["v"])[TEXT] == [None, "2.5", "x"]
        records = IndexStore().record_columns(table, "id", "v")
        assert (records.keys, records.values) == ([2, 3], ["2.5", "x"])


#: Cells of mixed columns: missing markers of every kind, blanks a
#: ``str.strip`` must see (a tab, an ideographic space), and present
#: values that look empty (NUL, ``0``, ``False``).
CELLS = st.one_of(
    st.sampled_from([
        None, "", " ", " \t", "\u3000", "\x00", "a", " a ", 0, 1, True, False, 0.0, 1.5,
        float("nan"), np.float16("nan"), np.float32("nan"), np.float64("nan"),
        np.float32(2.0), np.int64(3),
    ]),
    st.text(max_size=3),
    st.floats(allow_nan=True),
    st.integers(),
)


class TestPresentMask:
    """The bulk missing decision is ``is_missing`` per cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CELLS, max_size=12))
    def test_equals_is_missing_per_cell(self, values):
        from repro.table.schema import present_mask

        mask = present_mask(values)
        assert mask.dtype == bool
        assert mask.tolist() == [not is_missing(value) for value in values]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=12))
    def test_string_columns_equal_is_missing_per_cell(self, values):
        """The C-level ``str`` (and ``None``) branch."""
        from repro.table.schema import present_mask

        assert present_mask(values).tolist() == [not is_missing(value) for value in values]


class TestTypeInference:
    def test_value_types(self):
        assert infer_value_type(True) == ColumnType.BOOLEAN
        assert infer_value_type(3) == ColumnType.NUMERIC
        assert infer_value_type(3.5) == ColumnType.NUMERIC
        assert infer_value_type("WI") == ColumnType.SHORT_STRING
        assert infer_value_type("Dave Smith") == ColumnType.MEDIUM_STRING
        assert (
            infer_value_type("a very long product description with many words here")
            == ColumnType.LONG_STRING
        )
        assert infer_value_type(object()) == ColumnType.UNKNOWN

    def test_column_numeric(self):
        assert infer_column_type([1, 2.5, None]) == ColumnType.NUMERIC

    def test_column_boolean(self):
        assert infer_column_type([True, False]) == ColumnType.BOOLEAN

    def test_column_all_missing(self):
        assert infer_column_type([None, "", float("nan")]) == ColumnType.UNKNOWN

    def test_column_short_string(self):
        assert infer_column_type(["WI", "CA", "TX"]) == ColumnType.SHORT_STRING

    def test_column_medium_string(self):
        assert infer_column_type(["Dave Smith", "Joe Wilson"]) == ColumnType.MEDIUM_STRING

    def test_column_long_string(self):
        values = ["one two three four five six seven eight"] * 3
        assert infer_column_type(values) == ColumnType.LONG_STRING

    def test_mixed_numbers_and_strings_are_stringly(self):
        result = infer_column_type([1, "two words here", 3])
        assert result in (ColumnType.SHORT_STRING, ColumnType.MEDIUM_STRING)

    def test_infer_schema(self):
        table = Table({"id": [1, 2], "name": ["Dave Smith", "Ann Lee"]})
        schema = infer_schema(table)
        assert schema["id"] == ColumnType.NUMERIC
        assert schema["name"] == ColumnType.MEDIUM_STRING


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        table = Table(
            {"id": [1, 2], "name": ["a,b", "c"], "score": [1.5, None]}
        )
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("id") == [1, 2]
        assert loaded.column("name") == ["a,b", "c"]
        assert loaded.column("score") == [1.5, None]

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert read_csv(path).num_rows == 0

    def test_metadata_sidecar(self, tmp_path):
        catalog = get_catalog()
        table = Table({"id": [1, 2], "v": ["x", "y"]})
        catalog.set_key(table, "id")
        path = tmp_path / "t.csv"
        write_csv_metadata(table, path)
        assert (tmp_path / "t.csv.metadata.json").exists()

        loaded = read_csv_metadata(path)
        assert catalog.get_key(loaded) == "id"

    def test_read_csv_metadata_explicit_key(self, tmp_path):
        table = Table({"k": [1, 2]})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv_metadata(path, key="k")
        assert get_catalog().get_key(loaded) == "k"

    def test_read_csv_metadata_no_key(self, tmp_path):
        table = Table({"k": [1, 2]})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        loaded = read_csv_metadata(path)
        with pytest.raises(CatalogError):
            get_catalog().get_key(loaded)


class TestCellParsing:
    def test_leading_zero_identifiers_stay_strings(self, tmp_path):
        """ZIP '01234' must not silently become the integer 1234."""
        table = Table({"zip": ["01234", "99999"], "code": ["007", "0"]})
        path = tmp_path / "zips.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("zip") == ["01234", 99999]
        assert loaded.column("code") == ["007", 0]

    def test_signed_and_float_values(self, tmp_path):
        table = Table({"v": [-3, 2.5, "1e3"]})
        path = tmp_path / "vals.csv"
        write_csv(table, path)
        loaded = read_csv(path)
        assert loaded.column("v") == [-3, 2.5, 1000.0]
