"""Tests for down-sampling and candidate-set sampling."""

import pytest

from repro.blocking import OverlapBlocker, candset_pairs, make_candset
from repro.catalog import get_catalog
from repro.exceptions import ConfigurationError
from repro.features import extract_feature_vecs, get_features_for_matching
from repro.labeling import LabelingSession, OracleLabeler
from repro.sampling import (
    down_sample,
    naive_down_sample,
    sample_candset,
    weighted_sample_candset,
)


def surviving_matches(dataset, l_sample, r_sample):
    l_ids = set(l_sample.column("id"))
    r_ids = set(r_sample.column("id"))
    return {(a, b) for a, b in dataset.gold_pairs if a in l_ids and b in r_ids}


class TestDownSample:
    def test_sizes(self, small_person_dataset):
        ds = small_person_dataset
        l_sample, r_sample = down_sample(ds.ltable, ds.rtable, 40, seed=0)
        assert r_sample.num_rows == 40
        assert l_sample.num_rows <= ds.ltable.num_rows

    def test_preserves_more_matches_than_naive(self, small_person_dataset):
        """The headline claim: intelligent sampling keeps matching pairs."""
        ds = small_person_dataset
        size = 40
        smart_l, smart_r = down_sample(ds.ltable, ds.rtable, size, seed=1)
        naive_l, naive_r = naive_down_sample(ds.ltable, ds.rtable, size, seed=1)
        smart = len(surviving_matches(ds, smart_l, smart_r))
        naive = len(surviving_matches(ds, naive_l, naive_r))
        assert smart > naive

    def test_deterministic(self, small_person_dataset):
        ds = small_person_dataset
        a = down_sample(ds.ltable, ds.rtable, 30, seed=5)
        b = down_sample(ds.ltable, ds.rtable, 30, seed=5)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_size_larger_than_table(self, small_person_dataset):
        ds = small_person_dataset
        l_sample, r_sample = down_sample(ds.ltable, ds.rtable, 10_000, seed=0)
        assert r_sample.num_rows == ds.rtable.num_rows

    def test_invalid_params(self, small_person_dataset):
        ds = small_person_dataset
        with pytest.raises(ConfigurationError):
            down_sample(ds.ltable, ds.rtable, 0)
        with pytest.raises(ConfigurationError):
            down_sample(ds.ltable, ds.rtable, 10, y_param=0)

    def test_samples_do_not_move_with_the_hash_seed(self):
        """The same seeded samples under three string-hash seeds.  Equally
        rare tokens are probed in the order they first appear in the
        right row's text; ordering them as a set's iteration did gave a
        different left sample under each ``PYTHONHASHSEED``."""
        import os
        import subprocess
        import sys

        script = (
            "import hashlib\n"
            "from repro.datasets import make_em_dataset\n"
            "from repro.datasets.entities import person, product\n"
            "from repro.sampling import down_sample\n"
            "for entity in (person, product):\n"
            "    ds = make_em_dataset(entity, 2000, 2000, seed=3)\n"
            "    for y_param in (1, 3):\n"
            "        l_sample, r_sample = down_sample(\n"
            "            ds.ltable, ds.rtable, 300, y_param=y_param, seed=0)\n"
            "        ids = repr((l_sample['id'], r_sample['id'])).encode()\n"
            "        print(hashlib.sha256(ids).hexdigest())\n"
        )
        outputs = {}
        for hash_seed in ("0", "1", "2"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
            }
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs[hash_seed] = done.stdout
        assert len(set(outputs.values())) == 1, outputs

    def test_y_param_pulls_more_left_rows(self, small_person_dataset):
        ds = small_person_dataset
        few_l, _ = down_sample(ds.ltable, ds.rtable, 15, y_param=1, seed=2)
        # y_param only probes more; sample size still caps the result
        many_l, _ = down_sample(ds.ltable, ds.rtable, 15, y_param=3, seed=2)
        assert many_l.num_rows <= ds.ltable.num_rows
        assert few_l.num_rows <= ds.ltable.num_rows


class TestCandsetSampling:
    def _candset(self, dataset):
        blocker = OverlapBlocker("name", overlap_size=1)
        return blocker.block_tables(dataset.ltable, dataset.rtable, "id", "id")

    def test_sample_candset(self, small_person_dataset):
        candset = self._candset(small_person_dataset)
        sample = sample_candset(candset, 20, seed=0)
        assert sample.num_rows == 20

    def test_weighted_sample_finds_matches(self, small_person_dataset):
        ds = small_person_dataset
        candset = self._candset(ds)
        n = min(100, candset.num_rows - 1)
        weighted = weighted_sample_candset(candset, n, seed=0)
        uniform = sample_candset(candset, n, seed=0)

        def matches_in(sample):
            pairs = set(zip(sample.column("ltable_id"), sample.column("rtable_id")))
            return len(pairs & ds.gold_pairs)

        assert matches_in(weighted) >= matches_in(uniform)
        assert matches_in(weighted) > 0

    def test_weighted_sample_returns_all_when_small(self, small_person_dataset):
        candset = self._candset(small_person_dataset)
        sample = weighted_sample_candset(candset, candset.num_rows + 10, seed=0)
        assert sample.num_rows == candset.num_rows

    @pytest.mark.parametrize("top_fraction", [1.5, -0.5, float("nan")])
    def test_weighted_sample_rejects_top_fraction_outside_unit(
        self, small_person_dataset, top_fraction
    ):
        candset = self._candset(small_person_dataset)
        with pytest.raises(ConfigurationError, match="top_fraction"):
            weighted_sample_candset(candset, 10, top_fraction=top_fraction)

    def test_weighted_sample_rejects_negative_n(self, small_person_dataset):
        candset = self._candset(small_person_dataset)
        with pytest.raises(ConfigurationError, match="n must be"):
            weighted_sample_candset(candset, -1)

    @pytest.mark.parametrize("top_fraction", [0.0, 1.0])
    def test_weighted_sample_size_at_the_unit_ends(self, small_person_dataset, top_fraction):
        candset = self._candset(small_person_dataset)
        sample = weighted_sample_candset(candset, 10, seed=0, top_fraction=top_fraction)
        assert sample.num_rows == 10

    def test_weighted_sample_registered_in_catalog(self, small_person_dataset):
        from repro.catalog import get_catalog

        candset = self._candset(small_person_dataset)
        sample = weighted_sample_candset(candset, 10, seed=0)
        meta = get_catalog().get_candset_metadata(sample)
        assert meta.ltable is small_person_dataset.ltable


class TestSamplesAreCandsets:
    """Either sampler's output is a candidate set over the same base
    tables, so the guide's Label and feature steps can read it."""

    @pytest.mark.parametrize("sampler", [sample_candset, weighted_sample_candset])
    @pytest.mark.parametrize("extra", [-25, 0, 5])
    def test_label_then_extract_a_sample(self, small_person_dataset, sampler, extra):
        ds = small_person_dataset
        blocked = OverlapBlocker("name", overlap_size=1).block_tables(
            ds.ltable, ds.rtable, "id", "id"
        )
        candset = make_candset(candset_pairs(blocked)[:40], ds.ltable, ds.rtable, "id", "id")
        n = candset.num_rows + extra
        sample = sampler(candset, n, seed=0)
        assert sample.num_rows == min(n, candset.num_rows)
        if extra >= 0:  # all of the candidate set, in its order
            assert sample == candset
        meta = get_catalog().get_candset_metadata(sample)
        assert meta.ltable is ds.ltable and meta.rtable is ds.rtable
        LabelingSession(OracleLabeler(ds.gold_pairs)).label_candset(sample)
        features = get_features_for_matching(ds.ltable, ds.rtable, "id", "id")
        fv = extract_feature_vecs(sample, features, label_column="label")
        assert fv.column("ltable_id") == sample.column("ltable_id")
        assert fv.column("label") == sample.column("label")
