"""Classes clustered in forked worker processes: the same bytes at any process
count, the same error line for the smallest failing class, a memory cap summed
over the classes in flight, and no process left behind."""

from __future__ import annotations

import errno
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import ArrayMemoryError, stacked_dataset
from redunda import cli, metric, selection
from redunda.errors import DegenerateClusterError
from redunda.store import EmbeddingDataset, canonical_bytes

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
    reason="classes run in one process where os.fork or os.sched_getaffinity is missing",
)


def use_cpus(monkeypatch, cpus: int) -> None:
    """Make ``usable_processes`` see ``cpus`` CPUs and 1 BLAS thread per process."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def count_forks(monkeypatch) -> list[int]:
    forks: list[int] = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def tree(root: pathlib.Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def three_classes(tmp_path) -> pathlib.Path:
    """Classes of 90, 60 and 40 rows with interleaved records and sample ids
    that are not positions.  At fraction 0.3 class 0 gives up to the dense
    loop and the threshold engine finishes the other two."""
    rs = np.random.default_rng(11)
    sizes = (90, 60, 40)
    labels = np.array([c for i in range(max(sizes)) for c in range(3) if i < sizes[c]])
    ds = EmbeddingDataset(rs.permutation(len(labels)) * 3 + 5, labels, rs.normal(size=(len(labels), 8)))
    path = tmp_path / "three.bin"
    path.write_bytes(canonical_bytes(ds))
    return path


class TestProcessCount:
    def test_usable_processes_divides_cpus_by_blas_threads(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        for openblas, omp, expect in [(None, None, 1), ("1", None, 4), ("2", "1", 2),
                                      (None, "3", 1), ("0", "2", 2), ("8", None, 1), ("x", None, 1)]:
            for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
                if value is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, value)
            assert selection.usable_processes() == expect, (openblas, omp)

    def test_processes_is_the_only_byte_that_differs(self, three_classes, tmp_path, monkeypatch, capsys):
        real = metric.pairwise_condensed
        dense: list[int] = []
        monkeypatch.setattr(metric, "pairwise_condensed", lambda *a: dense.append(1) or real(*a))
        forks = count_forks(monkeypatch)
        trees, metas, outs = [], [], []
        for cpus in (1, 2, 3):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"p{cpus}"
            argv = ["select", "--input", str(three_classes), "--fraction", "0.3",
                    "--out", str(out), "--dump-dendrograms"]
            assert cli.main(argv) == 0
            outs.append(capsys.readouterr())
            meta = json.loads((out / "run_metadata.json").read_text())
            assert meta.pop("processes") == cpus
            del meta["timestamp"]
            metas.append(meta)
            trees.append({k: v for k, v in tree(out).items() if k != "run_metadata.json"})
        assert dense == [1, 1, 1]  # class 0 gave up; as the largest, it runs in this process
        assert len(forks) == 0 + 1 + 2
        assert len(trees[0]) == 12
        assert trees[1] == trees[0] and trees[2] == trees[0]
        assert metas[1] == metas[0] and metas[2] == metas[0]
        assert outs[1] == outs[0] and outs[2] == outs[0] and outs[0].err == ""

    def test_library_keeps_one_process_unless_asked(self, monkeypatch):
        use_cpus(monkeypatch, 4)
        forks = count_forks(monkeypatch)
        ds = stacked_dataset({0: np.eye(4), 1: np.eye(4)[::-1]})
        one = selection.build_cluster_subset(ds, 0.5)
        assert forks == []
        assert selection.build_cluster_subset(ds, 0.5, processes=2) == one
        assert forks == [1]


def failing_sizes(monkeypatch, make_exc):
    """``metric.unit_rows`` raises ``make_exc(n)`` for a class of n rows in ``fail``."""
    fail: set[int] = set()
    real = metric.unit_rows

    def unit_rows(X):
        if len(X) in fail:
            raise make_exc(len(X))
        return real(X)

    monkeypatch.setattr(metric, "unit_rows", unit_rows)
    return fail


def sized_classes() -> EmbeddingDataset:
    """Classes 0, 1, 2 of 30, 40, 20 rows: at 2 processes this one runs
    class 1 and a worker classes 0 and 2."""
    rs = np.random.default_rng(3)
    return stacked_dataset({c: rs.normal(size=(n, 6)) for c, n in ((0, 30), (1, 40), (2, 20))})


class TestErrors:
    @pytest.mark.parametrize("make_exc, kind, line", [
        (lambda n: FileNotFoundError(errno.ENOENT, "No such file or directory", f"/c{n}"), OSError,
         "io_error: class {c}: [Errno 2] No such file or directory: '/c{n}'"),
        (lambda n: ArrayMemoryError((2**40,), np.dtype("f8")), MemoryError,
         "out_of_memory: class {c}: Unable to allocate 8.00 TiB for an array"
         " with shape (1099511627776,) and data type float64"),
        (lambda n: DegenerateClusterError(f"rows of {n}"), DegenerateClusterError,
         "degenerate_cluster: class {c}: rows of {n}"),
    ], ids=["io", "numpy-memory", "coded"])
    @pytest.mark.parametrize("sizes, c, n, in_worker", [
        ({30, 40}, 0, 30, True),   # the worker's class 0 and this process's class 1
        ({40, 20}, 1, 40, False),  # this process's class 1 and the worker's class 2
    ], ids=["worker-smaller", "parent-smaller"])
    def test_smallest_failing_class_is_named(
        self, tmp_path, monkeypatch, capsys, make_exc, kind, line, sizes, c, n, in_worker
    ):
        failing_sizes(monkeypatch, make_exc).update(sizes)
        use_cpus(monkeypatch, 2)
        with pytest.raises(kind) as info:
            selection.build_cluster_subset(sized_classes(), 0.5, processes=2)
        exc = info.value
        assert type(exc) is kind
        assert str(exc) == line.format(c=c, n=n).split(": ", 1)[1]
        cause = exc.__cause__
        assert type(cause) is type(make_exc(n)) and str(cause) == str(make_exc(n))
        if isinstance(cause, OSError):
            assert (cause.errno, cause.filename) == (errno.ENOENT, f"/c{n}")
        # An exception that crossed the pipe was unpickled without a traceback.
        assert (cause.__traceback__ is None) is in_worker

        data = tmp_path / "d.bin"
        data.write_bytes(canonical_bytes(sized_classes()))
        code = cli.main(["select", "--input", str(data), "--fraction", "0.5", "--out", str(tmp_path / "r")])
        assert (code, capsys.readouterr().err) == (1, line.format(c=c, n=n) + "\n")
        assert not (tmp_path / "r").exists()

    def test_killed_worker_is_one_out_of_memory_line(self, tmp_path):
        data = tmp_path / "d.bin"
        data.write_bytes(canonical_bytes(sized_classes()))
        script = (
            "import os, signal, sys\n"
            "from redunda import cli, metric\n"
            "parent, real = os.getpid(), metric.unit_rows\n"
            "def unit_rows(X):\n"
            "    if os.getpid() != parent:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real(X)\n"
            "metric.unit_rows = unit_rows\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, "select", "--input", str(data), "--fraction", "0.5",
             "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("out_of_memory: class 0: the worker process for classes [0, 2]"
                               " ended before it gave a result\n")

    def test_no_process_is_left_running(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "d.bin"
        data.write_bytes(canonical_bytes(sized_classes()))
        use_cpus(monkeypatch, 3)
        forks = count_forks(monkeypatch)
        argv = ["select", "--input", str(data), "--fraction", "0.5", "--out", str(tmp_path / "r")]
        assert cli.main(argv) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        failing_sizes(monkeypatch, lambda n: MemoryError("no room")).add(40)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "out_of_memory: class 1: no room\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert forks == [1, 1, 1, 1]


class TestMemoryCapSummed:
    def test_cap_for_one_matrix_never_runs_two_at_once(self, monkeypatch):
        # Both 60-row classes give up at 10% kept; each builds a 14160-byte matrix.
        rs = np.random.default_rng(2)
        ds = stacked_dataset({0: rs.normal(size=(60, 8)), 1: rs.normal(size=(60, 8))})
        need = 60 * 59 // 2 * 8
        serial = selection.build_cluster_subset(ds, 0.1)
        forks = count_forks(monkeypatch)
        assert selection.build_cluster_subset(ds, 0.1, memory_cap_bytes=2 * need - 1, processes=2) == serial
        assert forks == []
        assert selection.build_cluster_subset(ds, 0.1, memory_cap_bytes=2 * need, processes=2) == serial
        assert forks == [1]
