"""Correlation, dataset IO, and synthetic-cohort tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualgraph.preprocess import (
    BoldMatrix,
    Dataset,
    generate_synthetic,
    load_dataset,
    pearson_correlation,
    planted_blocks,
    save_dataset,
)

from oracles import pearson_textbook, stump_best_accuracy


class TestPearsonCorrelation:
    def test_affine_row_is_perfectly_correlated(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal(20)
        series = np.vstack([base, 2.0 * base + 5.0])
        corr = pearson_correlation(series)
        assert abs(corr[0, 1] - 1.0) <= 1e-12

    def test_negated_row_anticorrelates(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal(20)
        corr = pearson_correlation(np.vstack([base, -base]))
        assert abs(corr[0, 1] + 1.0) <= 1e-12

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(3)
        series = rng.standard_normal((3, 4))
        corr = pearson_correlation(series)
        np.testing.assert_allclose(corr, pearson_textbook(series), atol=1e-12)

    def test_constant_row_correlates_zero(self):
        rng = np.random.default_rng(4)
        series = np.vstack([np.full(10, 3.5), rng.standard_normal(10)])
        corr = pearson_correlation(series)
        assert corr[0, 1] == 0.0 and corr[1, 0] == 0.0
        assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0

    def test_rejects_non_finite(self):
        series = np.ones((2, 5))
        series[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            pearson_correlation(series)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError, match="T >= 3"):
            pearson_correlation(np.ones((3, 2)))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(3, 12)),
            elements=st.floats(-100.0, 100.0),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants_on_random_inputs(self, series):
        corr = pearson_correlation(series)
        np.testing.assert_array_equal(corr, corr.T)
        assert np.all(np.diag(corr) == 1.0)
        assert np.all(corr >= -1.0) and np.all(corr <= 1.0)


class TestDatasetIO:
    def _tiny_dataset(self):
        rng = np.random.default_rng(5)
        subjects = [
            BoldMatrix("b_sub", rng.standard_normal((4, 6)), 1),
            BoldMatrix("a_sub", rng.standard_normal((4, 6)), 0),
        ]
        return Dataset(name="tiny", subjects=subjects)

    def test_round_trip_is_identity(self, tmp_path):
        ds = self._tiny_dataset()
        save_dataset(ds, str(tmp_path / "d"))
        loaded = load_dataset(str(tmp_path / "d"))
        assert [s.subject_id for s in loaded.subjects] == ["a_sub", "b_sub"]
        by_id = {s.subject_id: s for s in ds.subjects}
        for s in loaded.subjects:
            np.testing.assert_array_equal(s.series, by_id[s.subject_id].series)
            assert s.label == by_id[s.subject_id].label

    def test_cobre_shaped_round_trip_bitwise(self, tmp_path):
        ds = generate_synthetic(4, 96, 150, seed=12)
        save_dataset(ds, str(tmp_path / "cobre_like"))
        loaded = load_dataset(str(tmp_path / "cobre_like"))
        for orig, back in zip(ds.subjects, loaded.subjects):
            assert orig.subject_id == back.subject_id
            assert np.array_equal(orig.series, back.series)
        # saving the loaded copy reproduces the files byte for byte
        save_dataset(loaded, str(tmp_path / "again"))
        for name in ["labels.csv"] + [f"{s.subject_id}.csv" for s in ds.subjects]:
            first = (tmp_path / "cobre_like" / name).read_bytes()
            second = (tmp_path / "again" / name).read_bytes()
            assert first == second

    def test_subjects_sorted_even_if_labels_file_is_not(self, tmp_path):
        d = tmp_path / "unsorted"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\nzz,1\naa,0\n")
        (d / "zz.csv").write_text("1,2,3\n4,5,6\n")
        (d / "aa.csv").write_text("7,8,9\n1,1,1\n")
        loaded = load_dataset(str(d))
        assert [s.subject_id for s in loaded.subjects] == ["aa", "zz"]

    def test_missing_labels_file(self, tmp_path):
        with pytest.raises(ValueError, match="labels"):
            load_dataset(str(tmp_path))

    def test_non_binary_label_names_row(self, tmp_path):
        d = tmp_path / "bad"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,2\n")
        with pytest.raises(ValueError, match="row 2"):
            load_dataset(str(d))

    def test_ragged_subject_names_file_and_row(self, tmp_path):
        d = tmp_path / "ragged"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\ns2,1\n")
        (d / "s1.csv").write_text("1,2,3\n4,5\n")
        (d / "s2.csv").write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match=r"s1\.csv.*row 2"):
            load_dataset(str(d))

    def test_mismatched_subject_dimensions_rejected(self, tmp_path):
        d = tmp_path / "mixed"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\ns2,1\n")
        (d / "s1.csv").write_text("1,2,3\n4,5,6\n")
        (d / "s2.csv").write_text("1,2,3,4\n4,5,6,7\n")
        with pytest.raises(ValueError, match="s2"):
            load_dataset(str(d))

    def test_missing_subject_file(self, tmp_path):
        d = tmp_path / "missing"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\n")
        with pytest.raises(ValueError, match=r"s1\.csv"):
            load_dataset(str(d))

    def test_unparseable_value_names_location(self, tmp_path):
        d = tmp_path / "junk"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\n")
        (d / "s1.csv").write_text("1,2,3\n4,x,6\n5,5,5\n")
        with pytest.raises(ValueError, match=r"s1\.csv.*row 2"):
            load_dataset(str(d))


    @pytest.mark.parametrize("subject_id", ["../outside", "sub/s1", "..", "", "labels", "a\\b"])
    def test_subject_id_must_be_a_plain_file_name(self, tmp_path, subject_id):
        d = tmp_path / "data"
        d.mkdir()
        (tmp_path / "outside.csv").write_text("1,2,3\n4,5,6\n")
        (d / "labels.csv").write_text(f"subject_id,label\ns1,0\n{subject_id},1\n")
        (d / "s1.csv").write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValueError, match="row 3: subject id"):
            load_dataset(str(d))

    def test_save_refuses_ids_outside_the_directory(self, tmp_path):
        series = np.arange(6.0).reshape(2, 3) ** 2
        ds = Dataset("escape", [BoldMatrix("s1", series, 0), BoldMatrix("../outside", series, 1)])
        with pytest.raises(ValueError, match="not a plain file name"):
            save_dataset(ds, str(tmp_path / "data"))
        assert not (tmp_path / "outside.csv").exists()
        assert not (tmp_path / "data").exists()


class TestBoldMatrixValidation:
    def test_rejects_tiny_shapes(self):
        with pytest.raises(ValueError, match="at least 2 ROIs"):
            BoldMatrix("x", np.ones((1, 5)), 0)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            BoldMatrix("x", np.ones((3, 5)), 7)

    def test_dataset_rejects_mixed_geometry(self):
        a = BoldMatrix("a", np.ones((3, 5)), 0)
        b = BoldMatrix("b", np.ones((4, 5)), 1)
        with pytest.raises(ValueError, match="expected 3x5"):
            Dataset(name="bad", subjects=[a, b])


class TestGenerateSynthetic:
    def test_deterministic(self):
        first = generate_synthetic(8, 8, 32, seed=7)
        second = generate_synthetic(8, 8, 32, seed=7)
        for a, b in zip(first.subjects, second.subjects):
            assert a.subject_id == b.subject_id and a.label == b.label
            assert np.array_equal(a.series, b.series)

    def test_seed_changes_data(self):
        a = generate_synthetic(8, 8, 32, seed=7).subjects[0].series
        b = generate_synthetic(8, 8, 32, seed=8).subjects[0].series
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("args", [(3, 8, 32), (5, 8, 32), (8, 7, 32), (8, 8, 31)])
    def test_rejects_invalid_sizes(self, args):
        with pytest.raises(ValueError):
            generate_synthetic(*args, seed=0)

    def test_balanced_labels(self):
        ds = generate_synthetic(10, 8, 32, seed=1)
        assert int(ds.labels.sum()) == 5

    def test_within_block_correlation_dominates(self):
        ds = generate_synthetic(80, 16, 64, seed=3)
        for wanted in (0, 1):
            within, cross = [], []
            for s in ds.subjects:
                if s.label != wanted:
                    continue
                block = planted_blocks(16, s.label)
                corr = np.corrcoef(s.series)
                for i in range(16):
                    for j in range(i + 1, 16):
                        bucket = within if block[i] == block[j] else cross
                        bucket.append(abs(corr[i, j]))
            assert np.mean(within) - np.mean(cross) >= 0.3

    def test_depth1_oracle_separates_classes(self):
        ds = generate_synthetic(40, 16, 64, seed=3)
        feats = []
        for s in ds.subjects:
            corr = np.corrcoef(s.series)
            block0 = [i for i in range(16) if planted_blocks(16, 0)[i] == 0]
            vals = [corr[i, j] for i in block0 for j in block0 if i < j]
            feats.append(float(np.mean(vals)))
        assert stump_best_accuracy(feats, ds.labels) >= 0.9
