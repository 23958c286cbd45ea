"""Fuzz the CLI error contract with mutated inputs.

Every run must either succeed (exit 0) or print exactly one
``error_code: message`` line on stderr and exit 1.  ``main`` prints an
exception no check raised as ``internal_error``, so the test fails on that
code as it would on a traceback.
"""

from __future__ import annotations

import contextlib
import io
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
        assert not text.startswith("internal_error:"), text  # an error no check named


def fuzz_dir():
    return tempfile.TemporaryDirectory(prefix="redunda-fuzz-")


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
