"""Labeled embedding datasets: in-memory model plus binary and CSV codecs.

Vectors are kept in the precision they come in: float32 rows stay float32 (a
binary file's as a view of the body that was read), and CSV text and any other
input become float64.  Widening float32 to float64 is exact, so every reader
widens only the rows it uses, before any arithmetic on them, and all
arithmetic is float64 (``metric.as_rows``).  The constructor is the one way to
build a dataset: it validates, copies the ids and marks the vectors read-only.
"""

from __future__ import annotations

import hashlib
import io
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, InvalidArgumentError, UnknownClassError, ValidationError
from .metric import as_ids, as_rows, first_without_direction

MAGIC = b"REDE"
FORMAT_VERSION = 1
FLAG_EXPLICIT_IDS = 0x1

_HEADER = struct.Struct("<4sIIQI")
_MAX_CLASS_ID = 0xFFFFFFFF
_MAX_SAMPLE_ID = (1 << 63) - 1  # ids are int64 in memory (``metric.as_ids``)
_READ_STEP = 1 << 26  # bytes of a binary body read into memory per step


class EmbeddingDataset:
    """Immutable collection of labeled embeddings with a stable file order."""

    def __init__(self, sample_ids, class_ids, vectors, source_digest: str | None = None):
        """Validate raw arrays and assemble a dataset.

        Raises ValidationError on the first offending record: an id that is not an
        integer int64 can hold (``metric.as_ids``; 2.0 is read as 2), a vector with no
        direction (``metric.first_without_direction``, on float64 norms), bad or
        repeated ids.  Copies the ids.  ``vectors`` (``metric.as_rows``) is too large
        to copy: it is marked read-only, the caller's own array included, so no later write
        by the caller can change a dataset whose digest may already be cached.
        """
        vec = as_rows(vectors)
        if vec.ndim != 2:
            raise ValidationError(f"vectors must form a 2-d array, got ndim={vec.ndim}")
        n, dim = vec.shape
        if dim < 1:
            raise ValidationError("dimension must be at least 1")
        sids = np.array(as_ids(sample_ids, ValidationError, "record {}: sample_id")).reshape(-1)
        cids = np.array(as_ids(class_ids, ValidationError, "record {}: class_id")).reshape(-1)
        if len(sids) != n or len(cids) != n:
            raise ValidationError(
                f"length mismatch: {n} vectors, {len(sids)} ids, {len(cids)} classes"
            )

        if fault := first_without_direction(vec):
            raise ValidationError("record %d: %s" % fault)
        bad = np.flatnonzero(sids < 0)
        if bad.size:
            raise ValidationError(f"record {int(bad[0])}: negative sample_id")
        bad = np.flatnonzero((cids < 0) | (cids > _MAX_CLASS_ID))
        if bad.size:
            raise ValidationError(
                f"record {int(bad[0])}: class_id outside unsigned 32-bit range"
            )

        # A stable sort keeps equal ids in file order, so every row after the
        # first of its id is a duplicate; the smallest such row is reported.
        order = np.argsort(sids, kind="stable")
        dup = order[1:][sids[order][1:] == sids[order][:-1]]
        if dup.size:
            row = int(dup.min())
            raise ValidationError(f"record {row}: duplicate sample_id {int(sids[row])}")

        order = np.argsort(cids, kind="stable")
        present, starts = np.unique(cids[order], return_index=True)
        self._class_rows = dict(zip(present.tolist(), np.split(order, starts[1:])))

        if vec.strides[-1] != vec.itemsize:
            # Rows are read in place as vectors, and BLAS can round a
            # product over a strided vector differently.
            vec = np.ascontiguousarray(vec)
        for arr in (sids, cids, vec):
            arr.flags.writeable = False
        # int64, int64 and float32 or float64 (``metric.as_rows``), in file order
        self.sample_ids, self.class_ids, self.vectors = sids, cids, vec
        self.source_digest, self._digest_cache = source_digest, None

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.sample_ids)

    def classes(self) -> list[int]:
        """Class ids present, ascending."""
        return sorted(self._class_rows)

    def class_arrays(self, class_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample ids (int64) and rows of one class, in file order.

        The rows are in the dataset's precision, float32 (as a binary file
        holds them) or float64; a reader widens what it uses.  A class
        stored as one contiguous run of records is returned as read-only
        views, so no copy of its rows is made.
        """
        rows = self._class_rows.get(class_id)
        if rows is None:
            raise UnknownClassError(f"class {class_id} not present in dataset")
        if rows[-1] - rows[0] + 1 == len(rows):
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        return self.sample_ids[rows], self.vectors[rows]

    def class_sizes(self) -> dict[int, int]:
        return {cid: len(rows) for cid, rows in sorted(self._class_rows.items())}

    def has_positional_ids(self) -> bool:
        n = len(self)
        return bool(np.array_equal(self.sample_ids, np.arange(n, dtype=np.int64)))

    def digest(self) -> str:
        """SHA-256 hex digest of the dataset's source bytes.

        Datasets loaded from a file carry the digest of that file; datasets
        built in memory are digested over their canonical binary encoding.
        """
        if self.source_digest is not None:
            return self.source_digest
        if self._digest_cache is None:
            self._digest_cache = hashlib.sha256(canonical_bytes(self)).hexdigest()
        return self._digest_cache


def _record_dtype(dim: int, explicit_ids: bool) -> np.dtype:
    fields = [("sid", "<u8")] if explicit_ids else []
    fields += [("cid", "<u4"), ("vec", "<f4", (dim,))]
    return np.dtype(fields)


def canonical_bytes(dataset: EmbeddingDataset) -> bytes:
    """Canonical binary encoding: implicit ids iff they are positional."""
    n = len(dataset)
    dim = dataset.dimension
    explicit = not dataset.has_positional_ids()
    flags = FLAG_EXPLICIT_IDS if explicit else 0
    head = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, n, dim)
    body = np.empty(n, dtype=_record_dtype(dim, explicit))
    if explicit:
        body["sid"] = dataset.sample_ids.astype(np.uint64)
    body["cid"] = dataset.class_ids.astype(np.uint32)
    body["vec"] = dataset.vectors.astype(np.float32)
    return head + body.tobytes()


def _load_binary(path: Path) -> EmbeddingDataset:
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, flags, count, dim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if flags & ~FLAG_EXPLICIT_IDS:
            raise FormatError(f"{path}: unknown flag bits 0x{flags:x}")
        if dim < 1:
            raise FormatError(f"{path}: dimension must be positive, got {dim}")
        explicit = bool(flags & FLAG_EXPLICIT_IDS)
        if 4 * dim + (12 if explicit else 4) >= 2**31:  # numpy sizes a record in a C int
            raise FormatError(f"{path}: dimension {dim} is too large for a record")
        record = _record_dtype(dim, explicit)
        # Up to size + 1 bytes, whatever the file is (a pipe reports no size),
        # into one buffer grown _READ_STEP bytes at a time: a corrupt count
        # costs one step, and the digest covers exactly the bytes parsed.
        size = count * record.itemsize
        raw = np.empty(min(size + 1, _READ_STEP), dtype=np.uint8)
        got = 0
        while got < len(raw) and (n := f.readinto(raw[got:])):
            got += n
            if got == len(raw) <= size:
                raw.resize(min(size + 1, got + _READ_STEP), refcheck=False)
    if got > size:
        raise FormatError(f"{path}: trailing bytes after {count} records")
    if got < size:
        raise FormatError(f"{path}: expected {count} records, file holds {got // record.itemsize}")
    digest = hashlib.sha256(head)
    digest.update(raw[:size])
    body = np.frombuffer(raw, dtype=record, count=count)
    sids = body["sid"] if explicit else np.arange(count, dtype=np.int64)
    return EmbeddingDataset(sids, body["cid"], body["vec"], source_digest=digest.hexdigest())


def _load_csv(path: Path) -> EmbeddingDataset:
    sids: list[int] = []
    cids: list[int] = []
    rows: list[list[float]] = []
    dim: int | None = None
    first_content = True
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8-sig")  # a leading byte order mark is not data
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None
    with io.StringIO(text, newline="") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            fields = [p.strip() for p in line.split(",")]
            if first_content:
                first_content = False
                # Optional header: first field non-numeric.
                try:
                    float(fields[0])
                except ValueError:
                    continue
            if len(fields) < 3:
                raise FormatError(f"{path}:{ln}: expected at least 3 fields")
            try:
                sid = int(fields[0])
                cid = int(fields[1])
                vec = [float(p) for p in fields[2:]]
            except ValueError as exc:
                raise FormatError(f"{path}:{ln}: {exc}") from exc
            if abs(sid) > _MAX_SAMPLE_ID or abs(cid) > _MAX_SAMPLE_ID:
                raise ValidationError(f"{path}:{ln}: id does not fit in 64 bits")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise FormatError(
                    f"{path}:{ln}: expected {dim} components, got {len(vec)}"
                )
            sids.append(sid)
            cids.append(cid)
            rows.append(vec)
    vectors = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, dim or 1))
    return EmbeddingDataset(sids, cids, vectors, source_digest=digest)


def load_dataset(path, fmt: str | None = None) -> EmbeddingDataset:
    """Load a dataset; ``fmt`` is "binary" or "csv", inferred from the suffix
    when omitted (".csv" means CSV, anything else binary)."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "binary"
    if fmt == "binary":
        return _load_binary(path)
    if fmt == "csv":
        return _load_csv(path)
    raise InvalidArgumentError(f"unknown dataset format {fmt!r}")


def dataset_to_csv(dataset: EmbeddingDataset) -> str:
    """CSV text with a header row; ``repr`` round-trips every component exactly."""
    header = "sample_id,class_id," + ",".join(
        f"v{i + 1}" for i in range(dataset.dimension)
    )
    lines = [header]
    for sid, cid, row in zip(
        dataset.sample_ids.tolist(), dataset.class_ids.tolist(), dataset.vectors.tolist()
    ):
        lines.append(f"{sid},{cid}," + ",".join(map(repr, row)))
    return "\n".join(lines) + "\n"
