from __future__ import annotations

import hashlib
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NO_DIRECTION, pipe_serving
from redunda.errors import (
    FormatError,
    InvalidArgumentError,
    UnknownClassError,
    ValidationError,
)
from redunda.store import (
    FLAG_EXPLICIT_IDS,
    FORMAT_VERSION,
    MAGIC,
    EmbeddingDataset,
    canonical_bytes,
    dataset_to_csv,
    load_dataset,
)


FUZZ = settings(max_examples=60, deadline=None, derandomize=True)  # as the CLI fuzz tests
ID = st.integers(-(2**70), 2**70) | st.floats(allow_nan=True, allow_infinity=True)


def small_dataset() -> EmbeddingDataset:
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return EmbeddingDataset([0, 1, 2], [0, 0, 1], vectors)


def pack_binary(n, dim, records, flags=0, version=FORMAT_VERSION, magic=MAGIC) -> bytes:
    head = struct.pack("<4sIIQI", magic, version, flags, n, dim)
    body = b""
    for rec in records:
        if flags & FLAG_EXPLICIT_IDS:
            body += struct.pack("<Q", rec[0])
        body += struct.pack("<I", rec[1])
        body += struct.pack(f"<{dim}f", *rec[2])
    return head + body


def load_through_pipe(tmp_path, raw: bytes) -> EmbeddingDataset:
    with pipe_serving(tmp_path, raw) as fifo:
        return load_dataset(fifo)


class TestFromArrays:
    def test_class_index_partitions_ids(self):
        ds = small_dataset()
        assert ds.classes() == [0, 1]
        ids, X = ds.class_arrays(0)
        assert ids.tolist() == [0, 1]
        assert np.array_equal(X, [[1.0, 0.0], [0.0, 1.0]])
        assert ds.class_arrays(1)[0].tolist() == [2]
        assert ds.class_sizes() == {0: 2, 1: 1}
        assert sum(ds.class_sizes().values()) == len(ds)

    def test_interleaved_classes_keep_file_order(self):
        vectors = np.arange(10.0).reshape(5, 2) + 1.0
        ds = EmbeddingDataset([9, 4, 7, 1, 3], [1, 0, 1, 0, 1], vectors)
        ids, X = ds.class_arrays(1)
        assert ids.tolist() == [9, 7, 3]
        assert np.array_equal(X, vectors[[0, 2, 4]])
        assert ds.class_arrays(0)[0].tolist() == [4, 1]

    def test_unknown_class_rejected(self):
        with pytest.raises(UnknownClassError):
            small_dataset().class_arrays(9)

    def test_vectors_widened_to_float64_and_frozen(self):
        ds = small_dataset()
        assert ds.vectors.dtype == np.float64
        with pytest.raises(ValueError):
            ds.vectors[0, 0] = 5.0

    def test_float32_vectors_kept_as_given(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [3e20, 1.0]], dtype=np.float32)
        ds = EmbeddingDataset([0, 1, 2], [0, 0, 1], vectors)
        assert ds.vectors is vectors and not vectors.flags.writeable
        ints = EmbeddingDataset([0, 1], [0, 0], np.eye(2, dtype=np.int64))
        assert ints.vectors.dtype == np.float64
        # Each row is contiguous, as the kernels read a float64 row in place.
        columns = EmbeddingDataset([0, 1], [0, 0], np.asfortranarray(np.eye(2) + 1))
        assert columns.vectors.flags.c_contiguous

    def test_ids_are_copied(self):
        # A later write by the caller must not reach a validated dataset.
        sids, cids = np.arange(3), np.array([0, 0, 1])
        ds = EmbeddingDataset(sids, cids, np.eye(3))
        sids[1], cids[0] = 0, 1
        assert ds.sample_ids.tolist() == [0, 1, 2] and ds.class_ids.tolist() == [0, 0, 1]
        assert not ds.sample_ids.flags.writeable and not ds.class_ids.flags.writeable

    def test_non_finite_reports_record_index(self):
        vectors = np.array([[1.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValidationError, match="record 1"):
            EmbeddingDataset([0, 1], [0, 0], vectors)
        # finite components whose norm overflows
        vectors = np.array([[1.0, 0.0], [1e200, 1.0]])
        with pytest.raises(ValidationError, match="record 1: vector norm overflows"):
            EmbeddingDataset([0, 1], [0, 0], vectors)
        for row, reason in NO_DIRECTION:
            vectors = np.array([[1.0, 0.0], [0.0, 1.0], row])
            with pytest.raises(ValidationError, match=f"^record 2: {reason}$"):
                EmbeddingDataset([0, 1, 2], [0, 0, 0], vectors)
        # Each reason is tried over all records before the next.
        vectors = np.array([[1e200, 1e200], [0.0, 0.0], [1.0, np.inf]])
        with pytest.raises(ValidationError, match="^record 2: non-finite vector component$"):
            EmbeddingDataset([0, 1, 2], [0, 0, 0], vectors)
        with pytest.raises(ValidationError, match="^record 1: vector norm below 1e-30$"):
            EmbeddingDataset([0, 1], [0, 0], vectors[:2])

    def test_zero_vector_rejected(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValidationError, match="record 1"):
            EmbeddingDataset([0, 1], [0, 0], vectors)

    def test_duplicate_sample_id_rejected(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="duplicate sample_id 7"):
            EmbeddingDataset([7, 7], [0, 0], vectors)
        # the first record that repeats an earlier id is the one reported
        with pytest.raises(ValidationError, match="record 3: duplicate sample_id 5"):
            EmbeddingDataset([5, 8, 2, 5, 8], [0] * 5, np.ones((5, 2)))

    def test_negative_id_and_wide_class_rejected(self):
        vectors = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError):
            EmbeddingDataset([-1], [0], vectors)
        with pytest.raises(ValidationError):
            EmbeddingDataset([0], [1 << 32], vectors)

    def test_shape_errors(self):
        with pytest.raises(ValidationError, match="2-d array, got ndim=1"):
            EmbeddingDataset([0, 1], [0, 0], [1.0, 0.0])
        with pytest.raises(ValidationError, match="dimension must be at least 1"):
            EmbeddingDataset([0, 1], [0, 0], np.empty((2, 0)))
        with pytest.raises(ValidationError, match="length mismatch: 2 vectors, 1 ids, 2 classes"):
            EmbeddingDataset([0], [0, 0], np.eye(2))


class TestIdRule:
    def test_constructor_indexes_classes_and_checks_rows(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ds = EmbeddingDataset([0, 1, 2], [0, 0, 1], X)
        assert ds.classes() == [0, 1] and ds.class_sizes() == {0: 2, 1: 1}
        assert ds.class_arrays(1)[0].tolist() == [2] and ds.dimension == 2
        assert not hasattr(EmbeddingDataset, "from_arrays")
        with pytest.raises(ValidationError, match="^record 1: non-finite vector component$"):
            EmbeddingDataset([0, 1, 2], [0, 0, 1], [[1.0, 0.0], [np.nan, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("sids, cids, message", [
        ([0.5, 1], [0, 0], "record 0: sample_id is not an integer"),
        ([0, 1], [0, 0.9], "record 1: class_id is not an integer"),
        ([0, math.nan], [0, 0], "record 1: sample_id is not an integer"),
        ([0, 1], [math.nan, 0], "record 0: class_id is not an integer"),
        ([0, math.inf], [0, 0], "record 1: sample_id is not an integer"),
        ([0, 1], [0, -math.inf], "record 1: class_id is not an integer"),
        ([np.float64(math.inf), 1], [0, 0], "record 0: sample_id is not an integer"),
        ([0, 2**63], [0, 0], "record 1: sample_id exceeds supported range"),
        ([2**64, 1], [0, 0], "record 0: sample_id exceeds supported range"),
        ([0, np.uint64(2**63)], [0, 0], "record 1: sample_id exceeds supported range"),
        ([0, 1], [0, 2**64], "record 1: class_id exceeds supported range"),
        # each reason is tried over all records before the next
        ([2**64, 0.5], [0, 0], "record 1: sample_id is not an integer"),
    ])
    def test_refused_id_names_its_record(self, sids, cids, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EmbeddingDataset(sids, cids, np.eye(2))

    def test_integral_float_and_unsigned_ids_accepted(self):
        ds = EmbeddingDataset([0.0, 1.0], np.array([7, 2**32 - 1], dtype=np.uint64), np.eye(2))
        assert ds.sample_ids.tolist() == [0, 1] and ds.class_ids.tolist() == [7, 2**32 - 1]
        top = EmbeddingDataset(np.array([2**63 - 1], dtype=np.uint64), np.zeros(1), [[1.0]])
        assert top.sample_ids.tolist() == [2**63 - 1]
        assert top.sample_ids.dtype == top.class_ids.dtype == np.int64

    @FUZZ
    @given(st.lists(ID, min_size=1, max_size=4), st.booleans())
    @example([2**62 + 1, 1.0], False)  # an int beside a float is not rounded to a float
    def test_ids_are_refused_or_kept_exactly(self, ids, as_class):
        n = len(ids)
        try:
            ds = EmbeddingDataset(*((range(n), ids) if as_class else (ids, np.zeros(n))), np.eye(n))
        except ValidationError:
            return
        assert (ds.class_ids if as_class else ds.sample_ids).tolist() == ids


class TestBinaryFormat:
    def test_round_trip_byte_identical(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.bin"
        path.write_bytes(canonical_bytes(ds))
        loaded = load_dataset(path, "binary")
        assert loaded.vectors.dtype == np.float32 and not loaded.vectors.flags.writeable
        assert np.array_equal(loaded.vectors, ds.vectors)
        assert np.array_equal(loaded.sample_ids, ds.sample_ids)
        assert np.array_equal(loaded.class_ids, ds.class_ids)
        again = tmp_path / "d2.bin"
        again.write_bytes(canonical_bytes(loaded))
        assert again.read_bytes() == path.read_bytes()

    def test_positional_ids_written_implicit(self, tmp_path):
        raw = canonical_bytes(small_dataset())
        _, _, flags, count, dim = struct.unpack_from("<4sIIQI", raw)
        assert flags == 0 and count == 3 and dim == 2

    def test_explicit_ids_survive(self, tmp_path):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        ds = EmbeddingDataset([10, 5], [1, 1], vectors)
        path = tmp_path / "e.bin"
        path.write_bytes(canonical_bytes(ds))
        raw = path.read_bytes()
        assert struct.unpack_from("<4sIIQI", raw)[2] == FLAG_EXPLICIT_IDS
        loaded = load_dataset(path)
        assert list(loaded.sample_ids) == [10, 5]

    def test_explicit_positional_file_loads_but_rewrites_canonical(self, tmp_path):
        # ids 0..n-1 spelled out explicitly: legal input, canonicalized on write
        raw = pack_binary(
            2, 2, [(0, 3, (1.0, 0.0)), (1, 3, (0.0, 1.0))], flags=FLAG_EXPLICIT_IDS
        )
        path = tmp_path / "x.bin"
        path.write_bytes(raw)
        ds = load_dataset(path)
        assert list(ds.sample_ids) == [0, 1]
        assert len(canonical_bytes(ds)) < len(raw)

    def test_load_is_deterministic(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(canonical_bytes(small_dataset()))
        a = load_dataset(path)
        b = load_dataset(path)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.digest() == b.digest()

    def test_digest_is_file_sha256(self, tmp_path):
        path = tmp_path / "d.bin"
        path.write_bytes(canonical_bytes(small_dataset()))
        assert load_dataset(path).digest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_in_memory_digest_matches_canonical_file(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.bin"
        path.write_bytes(canonical_bytes(ds))
        assert ds.digest() == load_dataset(path).digest()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(pack_binary(1, 2, [(0, 0, (1.0, 0.0))], magic=b"NOPE"))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(pack_binary(1, 2, [(0, 0, (1.0, 0.0))], version=9))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_unknown_flags(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(pack_binary(1, 2, [(0, 0, (1.0, 0.0))], flags=0x4))
        with pytest.raises(FormatError, match="flag"):
            load_dataset(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"REDE\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_dataset(path)

    def test_truncated_records(self, tmp_path):
        raw = pack_binary(2, 2, [(0, 0, (1.0, 0.0))])  # header claims 2, holds 1
        path = tmp_path / "x.bin"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="expected 2 records"):
            load_dataset(path)

    def test_file_shorter_than_its_stat_size_is_a_format_error(self, tmp_path, monkeypatch):
        # The header claims 3 records and the file holds 2, but fstat reports
        # room for 3, as when the file shrinks after fstat: the read comes up
        # one record short, and the explicit ids must not load as 2 records.
        # The loader reads to the end and never asks fstat, so the stat size
        # it would have trusted cannot matter.
        path = tmp_path / "x.bin"
        path.write_bytes(pack_binary(
            3, 2, [(10, 0, (1.0, 0.0)), (11, 0, (0.0, 1.0))], flags=FLAG_EXPLICIT_IDS
        ))
        fstat = os.fstat

        def over_reported(fd):
            st = list(fstat(fd))
            st[6] += 8 + 4 + 2 * 4  # st_size, plus one explicit-id record
            return os.stat_result(st)

        monkeypatch.setattr(os, "fstat", over_reported)
        with pytest.raises(FormatError, match="expected 3 records, file holds 2"):
            load_dataset(path)

    def test_good_file_loads_through_a_pipe(self, tmp_path):
        raw = pack_binary(3, 2, [(10, 0, (1.0, 0.0)), (11, 0, (0.0, 1.0)), (12, 1, (1.0, 1.0))],
                          flags=FLAG_EXPLICIT_IDS)
        path = tmp_path / "x.bin"
        path.write_bytes(raw)
        on_disk, piped = load_dataset(path), load_through_pipe(tmp_path, raw)
        assert piped.digest() == on_disk.digest() == hashlib.sha256(raw).hexdigest()
        assert piped.sample_ids.tolist() == [10, 11, 12]
        assert np.array_equal(piped.vectors, on_disk.vectors)

    @pytest.mark.parametrize("raw, message", [
        (pack_binary(1, 2, [(0, 0, (1.0, 0.0))]) + b"\x00", "trailing bytes after 1 records"),
        (pack_binary(2, 2, [(0, 0, (1.0, 0.0))]), "expected 2 records, file holds 1"),
        (pack_binary(1, 2, [(0, 0, (1.0, 0.0))])[:12] + struct.pack("<QI", 2**62, 2)
         + pack_binary(1, 2, [(0, 0, (1.0, 0.0))])[24:],
         f"expected {2**62} records, file holds 1"),
    ], ids=["trailing-bytes", "short", "count-2**62"])
    def test_bad_file_through_a_pipe_is_a_format_error(self, tmp_path, raw, message):
        with pytest.raises(FormatError, match=message):
            load_through_pipe(tmp_path, raw)

    def test_trailing_bytes(self, tmp_path):
        raw = pack_binary(1, 2, [(0, 0, (1.0, 0.0))]) + b"\x00"
        path = tmp_path / "x.bin"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    @pytest.mark.parametrize("count, dim", [(1, 0xFFFFFFFF), (2**62, 2)])
    def test_header_sizes_checked_before_reading(self, tmp_path, count, dim):
        # one real record; the header claims an impossible dim or count
        raw = pack_binary(1, 2, [(0, 0, (1.0, 0.0))])
        path = tmp_path / "x.bin"
        path.write_bytes(raw[:12] + struct.pack("<QI", count, dim) + raw[24:])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_empty_dataset_round_trips(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(pack_binary(0, 4, []))
        ds = load_dataset(path)
        assert len(ds) == 0 and ds.dimension == 4 and ds.classes() == []
        out = tmp_path / "y.bin"
        out.write_bytes(canonical_bytes(ds))
        assert out.read_bytes() == path.read_bytes()

    def test_spec_worked_example(self, tmp_path):
        raw = pack_binary(
            3, 2, [(0, 0, (1.0, 0.0)), (1, 0, (0.0, 1.0)), (2, 1, (1.0, 1.0))]
        )
        path = tmp_path / "x.bin"
        path.write_bytes(raw)
        ds = load_dataset(path)
        assert ds.class_arrays(0)[0].tolist() == [0, 1]
        assert ds.class_arrays(1)[0].tolist() == [2]


class TestCsvFormat:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("7,2,0.5,0.5,0.5\n")
        ds = load_dataset(path)
        assert ds.dimension == 3
        assert ds.sample_ids.tolist() == [7] and ds.class_ids.tolist() == [2]
        assert np.array_equal(ds.vectors[0], [0.5, 0.5, 0.5])

    def test_header_detected_by_non_numeric_first_field(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("sample_id,class_id,v1,v2\n0,0,1.0,0.0\n1,1,0.0,1.0\n")
        ds = load_dataset(path)
        assert len(ds) == 2 and ds.dimension == 2

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,1.0,0.0,0.0\n1,0,1.0,0.0,0.0,9.0\n")
        with pytest.raises(FormatError, match=":2"):
            load_dataset(path)

    def test_unparseable_field_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,1.0,0.0\n1,zero,1.0,0.0\n")
        with pytest.raises(FormatError, match=":2"):
            load_dataset(path)

    def test_undecodable_text_and_wide_ids_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"0,0,1.0,0.0\n1,0,\x80.0,0.0\n")
        with pytest.raises(FormatError, match="not UTF-8"):
            load_dataset(path)
        path.write_text(f"0,0,1.0,0.0\n{1 << 64},0,1.0,0.0\n")
        with pytest.raises(ValidationError, match=":2: id does not fit"):
            load_dataset(path)

    def test_too_few_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_digest_is_file_sha256(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(dataset_to_csv(small_dataset()))
        assert load_dataset(path).digest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_round_trip_values(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "d.csv"
        path.write_text(dataset_to_csv(ds), encoding="utf-8")
        loaded = load_dataset(path)
        assert np.array_equal(loaded.vectors, ds.vectors)
        assert np.array_equal(loaded.sample_ids, ds.sample_ids)
        # repr round-trips doubles exactly, so a rewrite is byte-stable
        assert dataset_to_csv(loaded) == path.read_text()

    def test_format_inferred_from_suffix(self, tmp_path):
        bin_path = tmp_path / "d.bin"
        csv_path = tmp_path / "d.csv"
        bin_path.write_bytes(canonical_bytes(small_dataset()))
        csv_path.write_text(dataset_to_csv(small_dataset()), encoding="utf-8")
        assert len(load_dataset(bin_path)) == 3
        assert len(load_dataset(csv_path)) == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            load_dataset(tmp_path / "d.bin", "parquet")

    def test_exact_text_from_arrays(self):
        # Signed zero, a subnormal and a large exponent print exactly.
        big = (1 << 63) - 1
        ds = EmbeddingDataset([big, 3], [4, 0], [[-0.0, 5e-324, 1.0], [0.1, 1e150, 0.0]])
        assert dataset_to_csv(ds) == (
            "sample_id,class_id,v1,v2,v3\n"
            f"{big},4,-0.0,5e-324,1.0\n"
            "3,0,0.1,1e+150,0.0\n"
        )
