"""Fuzz the CLI error contract with mutated inputs.

Every run must either succeed (exit 0) or print exactly one
``error_code: message`` line on stderr and exit 1.  An exception escaping
``main`` would reach the user as a traceback, so the test fails on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stacked_dataset
from redunda.cli import main
from redunda.store import canonical_bytes, dataset_to_csv

ERROR_LINE = re.compile(r"[a-z_]+: [^\n]*\n")
FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

_rs = np.random.default_rng(5)
DATASET = stacked_dataset({c: _rs.normal(size=(6, 3)) for c in (0, 1)})
CSV_LINES = dataset_to_csv(DATASET).splitlines()
BINARY = canonical_bytes(DATASET)
HEADER_SIZE = 24


def run_cli(*argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    text = err.getvalue()
    if code == 0:
        assert text == ""
    else:
        assert code == 1
        assert ERROR_LINE.fullmatch(text), repr(text)


def fuzz_dir():
    return tempfile.TemporaryDirectory(prefix="redunda-fuzz-")


json_scalars = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
json_values = json_scalars | st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

csv_fields = (
    st.integers(-(2**70), 2**70).map(str)
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(alphabet="0123456789,.-+eE naif\t", max_size=10)
)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(0, HEADER_SIZE - 1), st.integers(0, 255)),
        min_size=1, max_size=4,
    ),
    command=st.sampled_from(["validate", "select"]),
)
def test_mutated_binary_header(edits, command):
    raw = bytearray(BINARY)
    for pos, value in edits:
        raw[pos] = value
    with fuzz_dir() as tmp:
        src = Path(tmp) / "data.bin"
        src.write_bytes(bytes(raw))
        if command == "validate":
            run_cli("validate", "--input", src)
        else:
            run_cli("select", "--input", src, "--fraction", "0.5", "--out", Path(tmp) / "o")


@FUZZ
@given(
    key=st.sampled_from(["method", "fraction", "seed", "source_digest", "retained", "0"]),
    value=json_values,
    drop=st.booleans(),
    raw=st.none() | st.binary(max_size=12),
    at=st.integers(0, 1000),
)
def test_mutated_manifest_for_stats(key, value, drop, raw, at):
    with fuzz_dir() as tmp:
        tmp = Path(tmp)
        src = tmp / "data.bin"
        src.write_bytes(BINARY)
        out = tmp / "sel"
        assert main(["select", "--input", str(src), "--fraction", "0.5", "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        target = doc["retained"] if key == "0" else doc
        if drop:
            target.pop(key, None)
        else:
            target[key] = value
        text = json.dumps(doc).encode()
        if raw is not None:  # splice arbitrary bytes into the document
            at %= len(text) + 1
            text = text[:at] + raw + text[at:]
        bad = tmp / "manifest.json"
        bad.write_bytes(text)
        run_cli("stats", "--input", src, "--manifest", bad, "--out", tmp / "stats")


@FUZZ
@given(
    line=st.integers(0, len(CSV_LINES) - 1),
    field=st.integers(0, 5),
    token=csv_fields,
    raw=st.none() | st.binary(min_size=1, max_size=3),
    command=st.sampled_from(["validate", "select"]),
)
def test_mutated_csv_line(line, field, token, raw, command):
    lines = list(CSV_LINES)
    fields = lines[line].split(",")
    fields[field % len(fields)] = token
    lines[line] = ",".join(fields)
    data = ("\n".join(lines) + "\n").encode()
    if raw is not None:
        data = data[:field] + raw + data[field:]
    with fuzz_dir() as tmp:
        src = Path(tmp) / "data.csv"
        src.write_bytes(data)
        if command == "validate":
            run_cli("validate", "--input", src)
        else:
            run_cli("select", "--input", src, "--fraction", "0.5", "--out", Path(tmp) / "o")
