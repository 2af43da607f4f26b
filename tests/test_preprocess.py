"""Correlation, dataset IO, and synthetic-cohort tests."""

import pathlib
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dualgraph import preprocess as preprocess_module
from dualgraph.preprocess import (
    BoldMatrix,
    Dataset,
    generate_synthetic,
    load_dataset,
    pearson_correlation,
    planted_blocks,
    save_dataset,
)

from oracles import load_dataset_rows, pearson_textbook, stump_best_accuracy


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

    @given(
        st.integers(1, 5).flatmap(
            lambda b: st.tuples(
                arrays(
                    np.float64,
                    st.tuples(st.just(b), st.integers(2, 6), st.integers(3, 12)),
                    elements=st.floats(-100.0, 100.0),
                ),
                st.integers(0, 2**32 - 1),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_a_stack_equals_its_subjects_2d_calls_bit_for_bit(self, drawn):
        stack, seed = drawn
        # some rows of some subjects are constant (zero variance)
        rng = np.random.default_rng(seed)
        constant = rng.random(stack.shape[:2]) < 0.3
        stack[constant] = rng.uniform(-5.0, 5.0, size=(int(constant.sum()), 1))
        corr = pearson_correlation(stack)
        assert corr.shape == (stack.shape[0], stack.shape[1], stack.shape[1])
        for subject, matrix in zip(stack, corr, strict=True):
            assert matrix.tobytes() == pearson_correlation(subject).tobytes()

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4, 5), (2, 3, 2)])
    def test_a_stack_of_the_wrong_rank_or_length_is_rejected(self, shape):
        message = f"expected an (N, T) matrix with T >= 3, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pearson_correlation(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("subject", [0, 2])
    def test_a_non_finite_entry_in_any_subject_of_a_stack_is_rejected(self, bad, subject):
        stack = np.random.default_rng(6).standard_normal((3, 4, 5))
        stack[subject, 3, 4] = bad
        for series in (stack[subject], stack):
            with pytest.raises(ValueError, match="^series has non-finite values$"):
                pearson_correlation(series)


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

    @pytest.mark.parametrize("target", ["labels.csv", "s1.csv"])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, target):
        d = tmp_path / "encoded"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\n")
        (d / "s1.csv").write_text("1,2,3\n4,5,6\n")
        (d / target).write_bytes(b"\xff\xfe" + (d / target).read_bytes())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(d / target))}: .*can't decode"):
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

    def test_failed_save_leaves_the_earlier_dataset_as_it_was(self, tmp_path, monkeypatch):
        d = tmp_path / "data"
        save_dataset(generate_synthetic(4, 8, 32, seed=1), str(d))
        earlier = {f.name: f.read_bytes() for f in d.iterdir()}
        rows = []

        def failing_format(values):
            rows.append(values)
            if len(rows) == 8 + 3:  # midway through the second subject
                raise OSError("disk full")
            return original(values)

        original = preprocess_module._format_row
        monkeypatch.setattr(preprocess_module, "_format_row", failing_format)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(generate_synthetic(4, 8, 32, seed=2), str(d))
        # Not one file of the new dataset replaced its earlier one, and no
        # temp file is left behind.
        assert {f.name: f.read_bytes() for f in d.iterdir()} == earlier
        save_dataset(generate_synthetic(4, 8, 32, seed=2), str(d))
        assert {f.name: f.read_bytes() for f in d.iterdir()} != earlier

    def test_save_refuses_ids_outside_the_directory(self, tmp_path):
        series = np.arange(6.0).reshape(2, 3) ** 2
        ds = Dataset("escape", [BoldMatrix("s1", series, 0), BoldMatrix("../outside", series, 1)])
        with pytest.raises(ValueError, match="not a plain file name"):
            save_dataset(ds, str(tmp_path / "data"))
        assert not (tmp_path / "outside.csv").exists()
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "subject_id", ["a,b", "a\nb", "a\rb", "a\x0cb", "a\u2028b", "a\x85", "a\x00b", "a\ud800b"]
    )
    def test_save_refuses_ids_that_would_not_load_back(self, tmp_path, subject_id):
        series = np.arange(6.0).reshape(2, 3) ** 2
        ds = Dataset("ids", [BoldMatrix("s1", series, 0), BoldMatrix(subject_id, series, 1)])
        with pytest.raises(ValueError, match="subject id"):
            save_dataset(ds, str(tmp_path / "data"))
        assert not (tmp_path / "data").exists()

    def test_save_refuses_duplicate_ids_and_leaves_the_earlier_dataset(self, tmp_path):
        d = tmp_path / "data"
        save_dataset(generate_synthetic(4, 8, 32, seed=1), str(d))
        earlier = {f.name: f.read_bytes() for f in d.iterdir()}
        series = np.arange(6.0).reshape(2, 3) ** 2
        ds = Dataset("twins", [BoldMatrix("s0000", series, 0), BoldMatrix("s0000", series + 1, 1)])
        with pytest.raises(ValueError, match="duplicate subject ids"):
            save_dataset(ds, str(d))
        assert {f.name: f.read_bytes() for f in d.iterdir()} == earlier

    @given(
        subject_id=st.text(
            st.one_of(st.sampled_from(",\n\r\x0b\x0c\x1c\x85\u2028./"), st.characters()), max_size=8
        )
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_id_save_accepts_loads_back_with_its_bits(self, tmp_path, subject_id):
        series = np.random.default_rng(len(subject_id)).standard_normal((3, 4))
        ds = Dataset("ids", [BoldMatrix(subject_id, series, 1)])
        with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
            try:
                save_dataset(ds, directory)
            except ValueError as exc:
                assert "subject id" in str(exc)
                return
            [back] = load_dataset(directory).subjects
        assert back.subject_id == subject_id and back.label == 1
        assert back.series.tobytes() == series.tobytes()

    def test_a_form_feed_does_not_end_a_labels_line(self, tmp_path):
        d = tmp_path / "data"
        save_dataset(generate_synthetic(4, 8, 32, seed=1), str(d))
        (d / "labels.csv").write_text("subject_id,label\ns0000,0\x0cs0001,1\n", newline="")
        with pytest.raises(ValueError, match=r"labels\.csv: row 2: expected 2 fields"):
            load_dataset(str(d))

    def test_a_subject_row_broken_by_a_form_feed_is_named_by_its_line(self, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        (d / "labels.csv").write_text("subject_id,label\ns1,0\n")
        (d / "s1.csv").write_text("1,2\x0c3\n4,5,6\n", newline="")
        with pytest.raises(ValueError, match=r"s1\.csv: row 1: could not convert"):
            load_dataset(str(d))

    def test_crlf_files_load_as_lf_files_do(self, tmp_path):
        lf, crlf = tmp_path / "lf", tmp_path / "crlf"
        save_dataset(generate_synthetic(4, 8, 32, seed=1), str(lf))
        crlf.mkdir()
        for f in lf.iterdir():
            (crlf / f.name).write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))
        key = lambda s: (s.subject_id, s.label, s.series.tobytes())  # noqa: E731
        assert [key(s) for s in load_dataset(str(crlf)).subjects] == [
            key(s) for s in load_dataset(str(lf)).subjects
        ]


CSV_TOKENS = [
    b"0", b"1", b"-2.5", b"1e999", b"nan", b"inf", b"1_0", b",", b",,", b"\n", b"\r\n", b"\r",
    b" ", b"\x00", b"\xff", b"\xc3\xa9", b"s1", b"s2", b"../s1", b"labels", b"subject_id,label",
]
CSV_BYTES = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(CSV_TOKENS), max_size=30).map(b"".join),
    st.lists(st.sampled_from(CSV_TOKENS), max_size=30).map(
        lambda parts: b"subject_id,label\n" + b"".join(parts)
    ),
)


class TestLoaderFuzz:
    @given(target=st.sampled_from(["labels.csv", "s1.csv"]), content=CSV_BYTES)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bytes_load_or_raise_value_error(self, tmp_path, target, content):
        """Whatever one file holds, load_dataset raises ValueError or loads."""
        files = {
            "labels.csv": b"subject_id,label\ns1,0\ns2,1\n",
            "s1.csv": b"1,2,3\n4,5,6\n",
            "s2.csv": b"7,8,9\n1,0,2\n",
            target: content,
        }
        # A fresh directory per example, each file written once: on ext4,
        # truncating a file whose data is not yet on disk, then removing
        # it, waits for its writeback (a minute over the 300 examples).
        with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
            for name, data in files.items():
                (pathlib.Path(directory) / name).write_bytes(data)
            try:
                dataset = load_dataset(directory)
            except ValueError:
                return
        assert all(np.isfinite(s.series).all() for s in dataset.subjects)


# Subject-file text for the parse-path property: numbers and the words
# float() reads, with the bytes each reader treats as whitespace or as a
# line break in one and not the other.
PARSE_ODD = [" ", "\t", "\r", "\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f",
             "\x85", "\xa0", "\u2028", "#"]
PARSE_TOKENS = list("0123456789,.eE+-\n") + PARSE_ODD + ["nan", "inf", "1e999", "1_0"]
PARSE_NUMBER = st.one_of(
    st.floats().map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "1_0", "-0", "-0.0", ".5", "5.", "1e-320", ""]),
)
PARSE_FIELD = st.tuples(
    st.sampled_from([""] + PARSE_ODD), PARSE_NUMBER, st.sampled_from([""] + PARSE_ODD)
).map("".join)
PARSE_ROW = st.tuples(
    st.lists(PARSE_FIELD, min_size=3, max_size=4).map(",".join),
    st.sampled_from(["\n", "\n", "\n", "\r\n", "\n\n", " \n", "\n\t"]),
).map("".join)
SUBJECT_TEXT = st.one_of(
    st.lists(st.sampled_from(PARSE_TOKENS), max_size=40).map("".join),
    st.lists(PARSE_ROW, max_size=4).map("".join),
)


def _load_or_message(load, directory):
    try:
        return load(directory)
    except ValueError as exc:
        return str(exc)


class TestParsePaths:
    @given(text=SUBJECT_TEXT)
    @example(text="")
    @example(text="\n\n")
    @example(text=" \n")
    @example(text="1\x1c,2,3\n4,5,6\n")
    @example(text="1,2,3\r\n-0,5,6\r\n")
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_both_parse_paths_give_the_row_parsers_arrays_or_message(self, tmp_path, text):
        """``load_dataset`` returns the row parser's bits or raises its exact message, silently."""
        files = {
            "labels.csv": b"subject_id,label\ns1,0\ns2,1\n",
            "s1.csv": text.encode("utf-8"),
            "s2.csv": b"7,8,9\n1,0,2\n",
        }
        with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
            for name, data in files.items():
                (pathlib.Path(directory) / name).write_bytes(data)
            expected = _load_or_message(load_dataset_rows, directory)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _load_or_message(load_dataset, directory)
        assert [str(w.message) for w in caught] == []
        if isinstance(expected, str):
            assert got == expected
            return
        assert not isinstance(got, str), got
        key = lambda s: (s.subject_id, s.label, s.series.shape, s.series.tobytes())  # noqa: E731
        assert [key(s) for s in got.subjects] == [key(s) for s in expected.subjects]

    def test_plain_ascii_lf_files_take_the_c_reader_and_no_other_file_does(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counting_loadtxt(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        lf = tmp_path / "lf"
        save_dataset(generate_synthetic(4, 8, 32, seed=1), str(lf))
        key = lambda s: (s.subject_id, s.series.tobytes())  # noqa: E731
        expected = list(map(key, load_dataset_rows(str(lf)).subjects))
        assert list(map(key, load_dataset(str(lf)).subjects)) == expected
        assert len(calls) == 4  # every subject file, and not labels.csv
        calls.clear()
        for name, edit in [("crlf", lambda b: b.replace(b"\n", b"\r\n")),
                           ("nbsp", lambda b: b.replace(b",", b"\xc2\xa0,")),
                           ("vtab", lambda b: b.replace(b",", b"\x0b,"))]:
            other = tmp_path / name
            other.mkdir()
            for f in lf.iterdir():
                data = f.read_bytes()
                (other / f.name).write_bytes(data if f.name == "labels.csv" else edit(data))
            assert list(map(key, load_dataset(str(other)).subjects)) == expected, name
        assert calls == []


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
