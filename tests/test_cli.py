from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import pathlib
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import redunda
from conftest import pipe_serving, stacked_dataset
import _oracles
from redunda import cli, cluster, selection
from redunda.cli import build_parser, main
from redunda.store import (
    FLAG_EXPLICIT_IDS, FORMAT_VERSION, MAGIC, EmbeddingDataset, canonical_bytes, dataset_to_csv,
    load_dataset,
)
from redunda.synth import measure_separation

SYNTH = [
    "synth", "--classes", "2", "--groups", "3", "--dim", "8",
    "--delta", "0.001", "--margin", "0.5", "--seed", "7", "--sizes", "1,2,3",
]

SELECT_REPORTS = [
    "manifest.json", "manifest.txt",
    "histogram.csv", "histogram.json", "histogram.txt",
    "dissimilarity.json", "dissimilarity.txt",
    "pairs.json", "pairs.txt",
    "run_metadata.json",
]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def synth_dataset(tmp_path, capsys):
    out = tmp_path / "gen"
    code, _, err = run(capsys, *SYNTH, "--out", out)
    assert code == 0, err
    return out / "dataset.bin"


def tree(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSynthCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code, stdout, _ = run(capsys, *SYNTH, "--out", out)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "dataset.bin", "ground_truth.json", "run_metadata.json",
        ]
        assert "class 0: groups=3 points=6" in stdout
        assert "total: classes=2 points=12 file=dataset.bin" in stdout
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["command"] == "synth"
        assert meta["max_within"] < 0.002
        assert meta["min_between"] > 0.498
        # The certificate is measured on the float32 values dataset.bin holds.
        doc = json.loads((out / "ground_truth.json").read_text())
        truth = {int(c): [frozenset(g) for g in groups] for c, groups in doc.items()}
        cert = measure_separation(load_dataset(out / "dataset.bin"), truth)
        assert meta["max_within"] == cert.max_within
        assert meta["min_between"] == cert.min_between

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code, _, _ = run(capsys, *SYNTH, "--format", "csv", "--out", out)
        assert code == 0
        assert (out / "dataset.csv").read_text().startswith("sample_id,class_id,")
        # CSV keeps every float64 bit, so the certificate is the file's exactly
        meta = json.loads((out / "run_metadata.json").read_text())
        doc = json.loads((out / "ground_truth.json").read_text())
        truth = {int(c): [frozenset(g) for g in groups] for c, groups in doc.items()}
        cert = measure_separation(load_dataset(out / "dataset.csv"), truth)
        assert (meta["max_within"], meta["min_between"]) == (cert.max_within, cert.min_between)

    def test_deterministic_dataset(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *SYNTH, "--out", a)[0] == 0
        assert run(capsys, *SYNTH, "--out", b)[0] == 0
        assert (a / "dataset.bin").read_bytes() == (b / "dataset.bin").read_bytes()
        assert (a / "ground_truth.json").read_text() == (b / "ground_truth.json").read_text()

    def test_planted_bench_input_is_pinned(self, tmp_path, capsys):
        # The planted-groups benchmark input at seed 0: 4 classes of 400
        # groups sized 1..16 in dim 32.  A faster synth must write the same
        # bytes (digests from the numpy/BLAS build the bench references pin).
        sizes = ",".join(str(1 + i % 16) for i in range(400))
        out = tmp_path / "planted"
        code, _, err = run(capsys, "synth", "--classes", 4, "--groups", 400, "--dim", 32,
                           "--delta", 0.02, "--margin", 0.5, "--seed", 0,
                           "--sizes", sizes, "--out", out)
        assert code == 0, err
        assert {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("dataset.bin", "ground_truth.json")
        } == {
            "dataset.bin": "0fb4065321969937f4ddf4d5038971543727aa594bb11d4579e2b8051df2f6d8",
            "ground_truth.json": "7f26171981e2284b1ca70a6486e8219eeeb81c6abf4a993e2d49929e2ba5db10",
        }

    def test_bad_sizes_string(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--classes", "1", "--groups", "2", "--dim", "4",
            "--delta", "0.001", "--margin", "0.5", "--seed", "0",
            "--sizes", "2,x", "--out", tmp_path / "g",
        )
        assert code == 1
        assert err.startswith("config_error: ")

    def test_class_count_above_the_stream_keys(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--classes", "5000000000", "--groups", "1", "--dim", "2",
            "--delta", "0.1", "--margin", "0.5", "--seed", "0",
            "--sizes", "1", "--out", tmp_path / "g",
        )
        assert code == 1
        assert err == "invalid_argument: classes must be <= 2**32, got 5000000000\n"
        assert not (tmp_path / "g").exists()

    def test_unsatisfiable_margin(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--classes", "1", "--groups", "50", "--dim", "2",
            "--delta", "0.1", "--margin", "0.9", "--seed", "0",
            "--size-range", "1", "1", "--out", tmp_path / "g",
        )
        assert code == 1
        assert err.startswith("margin_unsatisfiable: ")
        assert not (tmp_path / "g" / "dataset.bin").exists()

    def test_rerun_in_other_format_keeps_one_dataset(self, tmp_path, capsys):
        out = tmp_path / "D"
        assert run(capsys, *SYNTH, "--out", out)[0] == 0
        (out / "notes.txt").write_text("user file\n")
        other = list(SYNTH)
        other[other.index("--sizes") + 1] = "1,1,1"
        code, stdout, err = run(capsys, *other, "--format", "csv", "--out", out)
        assert code == 0, err
        assert "points=6 file=dataset.csv" in stdout
        assert sorted(tree(out)) == [
            "dataset.csv", "ground_truth.json", "notes.txt", "run_metadata.json",
        ]
        assert run(capsys, *SYNTH, "--out", out)[0] == 0
        assert sorted(tree(out)) == [
            "dataset.bin", "ground_truth.json", "notes.txt", "run_metadata.json",
        ]


class TestSelectCommand:
    def test_full_run_artifacts(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", out,
        )
        assert code == 0, err
        assert sorted(tree(out)) == sorted(SELECT_REPORTS)
        # planted sizes (1,2,3): n=6, k=3 per class
        assert "class 0: n=6 k=3 largest=3" in stdout
        assert "class 1: n=6 k=3 largest=3" in stdout
        assert "total: classes=2 points=12 retained=6" in stdout
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["method"] == "cluster-medoid"
        assert sum(map(len, manifest["retained"].values())) == 6

    def test_recovers_planted_groups(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", out,
        )[0] == 0
        truth = json.loads(
            (synth_dataset.parent / "ground_truth.json").read_text()
        )
        hist = json.loads((out / "histogram.json").read_text())
        for cid, groups in truth.items():
            want: dict[str, int] = {}
            for g in groups:
                want[str(len(g))] = want.get(str(len(g)), 0) + 1
            assert hist[cid] == want

    def test_rerun_identical_except_metadata(self, synth_dataset, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["select", "--input", synth_dataset, "--fraction", "0.5",
                "--dump-dendrograms"]
        assert run(capsys, *args, "--out", a)[0] == 0
        assert run(capsys, *args, "--out", b)[0] == 0
        ta, tb = tree(a), tree(b)
        assert sorted(ta) == sorted(tb)
        for rel in ta:
            if rel == "run_metadata.json":
                da = json.loads(ta[rel]);  db = json.loads(tb[rel])
                da.pop("timestamp");  db.pop("timestamp")
                assert da == db
            else:
                assert ta[rel] == tb[rel], rel

    def test_class_mean_weights_classes_and_changes_nothing_else(self, tmp_path, capsys):
        # Planted pairs around orthogonal anchors: class 0 keeps three groups
        # of two, class 1 one of three and a singleton, so the two weightings
        # of ``overall`` differ (with equal counts per class they would not).
        rs = np.random.default_rng(11)

        def planted(sizes):
            return np.concatenate(
                [np.eye(8)[g] + 0.01 * rs.normal(size=(s, 8)) for g, s in enumerate(sizes)]
            )

        ds = stacked_dataset({0: planted([2, 2, 2]), 1: planted([3, 1])})
        data = tmp_path / "d.bin"
        data.write_bytes(canonical_bytes(ds))

        def select(out, *flags):
            code, stdout, err = run(capsys, "select", "--input", data, "--fraction", "0.5",
                                    "--out", out, *flags)
            assert code == 0, err
            return tree(out), stdout

        default, out_default = select(tmp_path / "cluster")
        weighted, out_weighted = select(tmp_path / "class", "--class-mean")
        assert out_weighted == out_default
        assert sorted(weighted) == sorted(default)
        for rel in sorted(set(default) - {"dissimilarity.json", "dissimilarity.txt",
                                          "run_metadata.json"}):
            assert weighted[rel] == default[rel], rel
        by_cluster, by_class = (json.loads(t["dissimilarity.json"]) for t in (default, weighted))
        assert by_class["groups_counted"] == {"0": 3, "1": 1}
        assert (by_cluster["weighting"], by_class["weighting"]) == ("cluster", "class")
        means = [by_class["per_class"][c] for c in sorted(by_class["per_class"], key=int)]
        assert by_class["overall"] == float(np.mean(means)) != by_cluster["overall"]
        # Every other line keeps its bytes: per_class and groups_counted in
        # the JSON, the class lines of the table.
        drop = ('"overall"', '"weighting"')
        json_lines, table = (
            [[ln for ln in t[name].decode().splitlines() if not ln.lstrip().startswith(drop)]
             for t in (weighted, default)]
            for name in ("dissimilarity.json", "dissimilarity.txt")
        )
        assert json_lines[0] == json_lines[1]
        assert table[0][:-1] == table[1][:-1]
        assert table[0][-1] == f"{'all':>8}  {'mean/class':>10}  {by_class['overall']:>18.6e}"

    def test_class_ids_reach_every_artifact_from_the_key(self, tmp_path, capsys):
        # Class ids that are not positions, explicit sample ids, and one file
        # class-major and one interleaved (each class's rows in the same
        # relative order): each artifact names the classes by their ids,
        # whatever the place of their records in the file.
        rs = np.random.default_rng(29)
        cids = np.repeat([0, 7, 2**32 - 1], 12)
        X = rs.normal(size=(36, 6))
        X[1::4] = X[::4] + 1e-3 * rs.normal(size=(9, 6))  # a close partner for every fourth row
        sids = 3 * rs.permutation(1000)[:36] + 5
        runs = {}
        interleaved = np.arange(36).reshape(3, 12).T.ravel()
        for name, order in (("major", np.arange(36)), ("interleaved", interleaved)):
            data = tmp_path / f"{name}.bin"
            data.write_bytes(canonical_bytes(EmbeddingDataset(sids[order], cids[order], X[order])))
            code, stdout, err = run(capsys, "select", "--input", data, "--fraction", "0.5",
                                    "--dump-dendrograms", "--out", tmp_path / name)
            assert code == 0, err
            files = tree(tmp_path / name)
            del files["run_metadata.json"]
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["source_digest"]
            runs[name] = stdout, manifest, files
        assert runs["major"] == runs["interleaved"]
        stdout, manifest, files = runs["major"]
        names = ["0", "7", "4294967295"]
        assert [ln.split(":")[0] for ln in stdout.splitlines()[:3]] == [f"class {c}" for c in names]
        assert sorted(manifest["retained"], key=int) == names
        assert {ln.split()[0] for ln in files["manifest.txt"].decode().splitlines()} == set(names)
        assert [f for f in files if f.startswith("dendrograms/")] == [
            f"dendrograms/class_{c}.txt" for c in sorted(names)
        ]
        dis = json.loads(files["dissimilarity.json"])
        for doc in (json.loads(files["histogram.json"]), json.loads(files["pairs.json"]),
                    dis["per_class"], dis["groups_counted"]):
            assert sorted(doc, key=int) == names

    def test_ids_at_the_int64_edge_are_written_exactly(self, tmp_path, capsys):
        # Ids a float64 cannot hold (2**53 + 1, 2**62 + 3, 2**63 - 1) or would
        # merge with a neighbour (2**53): every artifact writes them as given.
        # Each pair of mirrored rows ties its medoid to the smaller id, and the
        # mirrored pair (1, 1, +-0.01) ties as the other medoid's neighbour.
        top, big = 2**63 - 1, 2**53
        sids = [top, top - 1, big + 1, big, 2**62 + 3]
        X = np.array([[1, 0.01, 0], [1, -0.01, 0], [1, 1, 0.01], [1, 1, -0.01], [0, 0, 1]])
        data = tmp_path / "edge.bin"
        data.write_bytes(canonical_bytes(EmbeddingDataset(sids, [0] * 5, X)))
        _, results = selection.build_cluster_subset(load_dataset(data), 0.6, nearest_excluded=True)
        pairs = results[0].pairs
        assert [(r, nb) for r, nb, _ in pairs] == [(big, top), (top - 1, big)]
        assert [tuple(map(type, p)) for p in pairs] == [(int, int, float)] * 2
        for fraction, kept in (("0.6", [big, 2**62 + 3, top - 1]), ("1.0", sorted(sids))):
            out = tmp_path / fraction
            code, _, err = run(capsys, "select", "--input", data, "--fraction", fraction,
                               "--out", out)
            assert code == 0, err
            assert json.loads((out / "manifest.json").read_text())["retained"] == {"0": kept}
            assert (out / "manifest.txt").read_text() == "".join(f"0 {s}\n" for s in kept)
        doc = json.loads((tmp_path / "0.6" / "pairs.json").read_text())
        assert doc == {"0": [
            {"retained_id": r, "neighbor_id": nb, "dissimilarity": d} for r, nb, d in pairs
        ]}
        rows = (tmp_path / "0.6" / "pairs.txt").read_text().splitlines()[1:]
        assert [ln.split()[:3] for ln in rows] == [["0", str(r), str(nb)] for r, nb, _ in pairs]

    def test_fraction_one_keeps_all(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "1.0",
            "--out", out,
        )
        assert code == 0
        assert "total: classes=2 points=12 retained=12" in stdout

    def test_report_opt_out(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--no-histogram", "--no-dissimilarity", "--no-nearest-excluded",
            "--out", out,
        )
        assert code == 0
        assert sorted(tree(out)) == ["manifest.json", "manifest.txt", "run_metadata.json"]

    def test_uniform_random_via_select(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--method", "uniform-random", "--seed", "3", "--out", out,
        )
        assert code == 0
        assert "note: cluster reports skipped" in stdout
        assert sorted(tree(out)) == ["manifest.json", "manifest.txt", "run_metadata.json"]
        assert json.loads((out / "manifest.json").read_text())["seed"] == 3

    def test_csv_input_by_suffix(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        assert run(capsys, *SYNTH, "--format", "csv", "--out", gen)[0] == 0
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "select", "--input", gen / "dataset.csv", "--fraction", "0.5",
            "--out", out,
        )
        assert code == 0, err

    def test_run_metadata_fields(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", out,
        )[0] == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["command"] == "select"
        assert meta["method"] == "cluster-medoid"
        assert meta["fraction"] == 0.5
        assert meta["seed"] is None
        assert meta["generator"]["name"]
        assert re.fullmatch(r"[0-9a-f]{64}", meta["source_digest"])
        assert meta["classes"]["0"] == {"n": 6, "k": 3, "largest": 3}


class TestConfigErrors:
    def test_random_requires_seed(self, synth_dataset, tmp_path, capsys):
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--method", "uniform-random", "--out", tmp_path / "r",
        )
        assert code == 1
        assert err.startswith("config_error: ")
        assert "--seed" in err

    def test_cluster_rejects_seed(self, synth_dataset, tmp_path, capsys):
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--seed", "4", "--out", tmp_path / "r",
        )
        assert code == 1
        assert err.startswith("config_error: ")

    def test_bad_fraction(self, synth_dataset, tmp_path, capsys):
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "1.5",
            "--out", tmp_path / "r",
        )
        assert code == 1
        assert err.startswith("config_error: ")

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "select", "--fraction", "0.5")
        assert code == 1
        assert err.startswith("config_error: ")

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1
        assert err.startswith("config_error: ")

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "select", "--input", tmp_path / "nope.bin",
            "--fraction", "0.5", "--out", tmp_path / "r",
        )
        assert code == 1
        assert err.startswith("io_error: ")

    def test_out_of_memory_is_one_line(self, synth_dataset, tmp_path, capsys, monkeypatch):
        # Raised, not provoked: whether a huge allocation fails depends on the
        # kernel's overcommit setting.
        def no_memory(*_):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(redunda.synth, "generate", no_memory)
        monkeypatch.setattr(redunda.cli, "load_dataset", no_memory)
        for argv in (
            [*SYNTH, "--out", tmp_path / "g"],
            ["select", "--input", synth_dataset, "--fraction", "0.5", "--out", tmp_path / "s"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert err == "out_of_memory: Unable to allocate 7.28 TiB for an array\n"

    def test_errors_are_single_line(self, synth_dataset, tmp_path, capsys):
        for argv in (
            ["select", "--input", synth_dataset, "--fraction", "2",
             "--out", tmp_path / "x"],
            ["select", "--input", tmp_path / "nope.bin", "--fraction", "0.5",
             "--out", tmp_path / "x"],
            ["bogus"],
        ):
            _, _, err = run(capsys, *argv)
            assert re.fullmatch(r"[a-z_]+: [^\n]+\n", err)


class TestSeedRange:
    """Seeds must fit the 64-bit generator key; larger ones used to alias."""

    @pytest.mark.parametrize("argv", [
        [*SYNTH[:-4], "--sizes", "1,2,3"],  # SYNTH without its --seed
        ["select", "--input", "{data}", "--fraction", "0.5", "--method", "uniform-random"],
    ], ids=["synth", "select"])
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 1])
    def test_seed_above_64_bits_rejected(self, synth_dataset, tmp_path, capsys, argv, seed):
        argv = [a.format(data=synth_dataset) for a in argv]
        out = tmp_path / "r"
        code, _, err = run(capsys, *argv, "--seed", seed, "--out", out)
        assert code == 1
        assert re.fullmatch(r"invalid_argument: [^\n]+\n", err)
        assert not out.exists() or not any(out.rglob("*"))


class TestMemoryCap:
    def test_flag_trips_cap(self, tmp_path, capsys):
        # 60 random rows kept at 10% need the dense loop, which builds the
        # 60 * 59 / 2 * 8 = 14160-byte condensed matrix.
        src = tmp_path / "wide.bin"
        rows = np.random.default_rng(2).normal(size=(60, 8))
        src.write_bytes(canonical_bytes(stacked_dataset({0: rows})))
        code, _, err = run(
            capsys, "select", "--input", src, "--fraction", "0.1",
            "--memory-cap", "50", "--out", tmp_path / "r",
        )
        assert code == 1
        assert err.startswith("memory_cap_exceeded: ")
        assert not (tmp_path / "r" / "manifest.json").exists()

    def test_cap_spares_classes_that_never_build_the_matrix(self, synth_dataset, tmp_path, capsys):
        # Both 6-point classes keep all 15 cells (15 <= 8 * 6), so the
        # threshold engine finishes them and a 50-byte cap does not bind.
        args = ["select", "--input", synth_dataset, "--fraction", "0.5"]
        code, _, err = run(capsys, *args, "--memory-cap", "50", "--out", tmp_path / "capped")
        assert code == 0, err
        assert run(capsys, *args, "--out", tmp_path / "free")[0] == 0
        capped, free = tree(tmp_path / "capped"), tree(tmp_path / "free")
        del capped["run_metadata.json"], free["run_metadata.json"]
        assert capped == free

    def test_negative_flag_is_config_error(self, synth_dataset, tmp_path, capsys):
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--memory-cap", "-1", "--out", tmp_path / "r",
        )
        assert code == 1
        assert re.fullmatch(r"config_error: [^\n]+\n", err)



class TestAllOrNothing:
    def test_error_before_emit_writes_nothing(self, tmp_path, capsys):
        # a class of two antipodal points degenerates at fraction 0.5
        ds = stacked_dataset({0: [[1.0, 0.0], [-1.0, 0.0]]})
        src = tmp_path / "bad.bin"
        src.write_bytes(canonical_bytes(ds))
        out = tmp_path / "r"
        code, _, err = run(
            capsys, "select", "--input", src, "--fraction", "0.5", "--out", out,
        )
        assert code == 1
        assert err.startswith("degenerate_cluster: class 0:")
        assert not out.exists() or not any(out.rglob("*"))

    def test_write_failure_cleans_up(self, synth_dataset, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r"
        orig = pathlib.Path.write_text
        calls = {"n": 0}

        def flaky(self, *a, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("disk full")
            return orig(self, *a, **kw)

        monkeypatch.setattr(pathlib.Path, "write_text", flaky)
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", out,
        )
        assert code == 1
        assert err.startswith("io_error: ")
        assert calls["n"] >= 3
        assert not [p for p in out.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("method_args", [
        ["--method", "cluster-medoid"], ["--method", "uniform-random", "--seed", "1"],
    ], ids=["cluster-medoid", "uniform-random"])
    def test_empty_dataset_is_refused_by_both_methods(self, tmp_path, capsys, method_args):
        src = tmp_path / "empty.bin"
        src.write_bytes(canonical_bytes(EmbeddingDataset([], [], np.empty((0, 4)))))
        out = tmp_path / "r"
        out.mkdir()
        (out / "notes.txt").write_text("user file\n")
        code, _, err = run(
            capsys, "select", "--input", src, "--fraction", "0.5", *method_args, "--out", out,
        )
        assert code == 1
        assert err == "invalid_argument: dataset has no records\n"
        assert sorted(tree(out)) == ["notes.txt"]


class TestOneRunPerOut:
    def test_rerun_removes_stale_artifacts(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "D"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--dump-dendrograms", "--out", out,
        )[0] == 0
        assert (out / "dendrograms" / "class_0.txt").is_file()
        (out / "notes.txt").write_text("user file\n")
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.34",
            "--no-histogram", "--no-dissimilarity", "--out", out,
        )
        assert code == 0, err
        assert sorted(tree(out)) == [
            "manifest.json", "manifest.txt", "notes.txt",
            "pairs.json", "pairs.txt", "run_metadata.json",
        ]
        assert not (out / "dendrograms").exists()
        assert json.loads((out / "manifest.json").read_text())["fraction"] == 0.34

    def test_baseline_after_select_keeps_one_run(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "D"
        args = ["--input", synth_dataset, "--fraction", "0.5", "--out", out]
        assert run(capsys, "select", *args)[0] == 0
        assert run(
            capsys, "select", *args, "--method", "uniform-random", "--seed", "3"
        )[0] == 0
        assert sorted(tree(out)) == ["manifest.json", "manifest.txt", "run_metadata.json"]

    def test_input_in_out_is_kept(self, tmp_path, capsys):
        # --input named like an optional artifact this run does not write.
        out = tmp_path / "D"
        out.mkdir()
        src = out / "histogram.csv"
        src.write_text(
            "".join(f"{i},0,{1.0 + i},{2.0 - i}\n" for i in range(4)), encoding="utf-8"
        )
        before = src.read_bytes()
        code, _, err = run(
            capsys, "select", "--format", "csv", "--input", src, "--fraction", "0.5",
            "--no-histogram", "--out", out,
        )
        assert code == 0, err
        assert src.read_bytes() == before

    @pytest.mark.parametrize("name, fmt, written", [
        ("histogram.csv", "csv", "histogram.csv"),
        ("manifest.json", "binary", "manifest.json"),
        (".run_metadata.json.partial", "binary", "run_metadata.json"),  # its staged file
    ])
    def test_input_this_run_writes_is_refused(
        self, synth_dataset, tmp_path, capsys, monkeypatch, name, fmt, written
    ):
        # Refused once the dataset is loaded, before any class is clustered.
        clustered = []
        monkeypatch.setattr(selection, "_cluster_class", lambda *a, **k: clustered.append(a))
        out = tmp_path / "D"
        out.mkdir()
        src = out / name
        if fmt == "csv":
            src.write_text(dataset_to_csv(load_dataset(synth_dataset)), encoding="utf-8")
        else:
            src.write_bytes(synth_dataset.read_bytes())
        before = (tree(out), sorted(out.rglob("*")))
        code, stdout, err = run(
            capsys, "select", "--format", fmt, "--input", src, "--fraction", "0.5", "--out", out,
        )
        assert (code, stdout) == (1, "")
        assert err == f"config_error: --input {src} is {written}, which this run writes\n"
        assert (tree(out), sorted(out.rglob("*"))) == before
        assert clustered == []

    @pytest.mark.parametrize("flags", [
        [], ["--no-histogram", "--no-nearest-excluded", "--dump-dendrograms"],
        ["--no-dissimilarity", "--dump-dendrograms"], ["--method", "uniform-random", "--seed", "3"],
    ])
    def test_the_names_refused_are_the_files_written(self, synth_dataset, tmp_path, capsys, flags):
        out = tmp_path / "D"
        argv = ["select", "--input", synth_dataset, "--fraction", "0.5", "--out", out, *flags]
        assert run(capsys, *argv)[0] == 0
        args = build_parser().parse_args([str(a) for a in argv])
        assert sorted(tree(out)) == sorted(cli._written(args, load_dataset(synth_dataset).classes()))

    @pytest.mark.parametrize("method_args", [[], ["--method", "uniform-random", "--seed", "1"]],
                             ids=["cluster-medoid", "uniform-random"])
    def test_select_checks_its_manifest_once(
        self, synth_dataset, tmp_path, capsys, monkeypatch, method_args
    ):
        # One check, of the manifest the build returned, before --out exists;
        # manifest.json then holds that manifest's JSON.
        out = tmp_path / "D"
        orig, checked, built = selection.validate_manifest, [], []

        def counting(manifest, ds):
            checked.append((manifest, out.exists()))
            return orig(manifest, ds)

        def recording(build):
            def wrapped(*args, **kwargs):
                built.append(result := build(*args, **kwargs))
                return result
            return wrapped

        monkeypatch.setattr(selection, "validate_manifest", counting)
        for name in ("build_cluster_subset", "build_random_subset"):
            monkeypatch.setattr(selection, name, recording(getattr(selection, name)))
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5", *method_args,
            "--out", out,
        )
        assert code == 0, err
        (result,) = built
        manifest = result[0] if isinstance(result, tuple) else result
        assert len(checked) == 1 and checked[0][0] is manifest and checked[0][1] is False
        assert (out / "manifest.json").read_text() == selection.manifest_to_json(manifest)

    def test_failed_revalidation_removes_what_was_written(
        self, synth_dataset, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "D"
        out.mkdir()
        (out / "notes.txt").write_text("user file\n")
        calls = []

        def check_fails(manifest, ds):  # select's one check, before anything is written
            calls.append(manifest)
            raise selection.ValidationError("manifest on disk is corrupt")

        monkeypatch.setattr(selection, "validate_manifest", check_fails)
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", out,
        )
        assert code == 1 and len(calls) == 1
        assert re.fullmatch(r"validation_error: [^\n]+\n", err)
        assert sorted(tree(out)) == ["notes.txt"]

    def test_failed_revalidation_keeps_the_earlier_run(
        self, synth_dataset, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "D"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--dump-dendrograms", "--out", out,
        )[0] == 0
        (out / "notes.txt").write_text("user file\n")
        before = tree(out)
        assert "dendrograms/class_0.txt" in before
        calls = []

        def check_fails(manifest, ds):  # select's one check, before anything is written
            calls.append(manifest)
            raise selection.ValidationError("manifest on disk is corrupt")

        monkeypatch.setattr(selection, "validate_manifest", check_fails)
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.34",
            "--no-histogram", "--out", out,
        )
        assert code == 1 and len(calls) == 1
        assert re.fullmatch(r"validation_error: [^\n]+\n", err)
        assert tree(out) == before

    def test_failed_write_keeps_the_earlier_run(
        self, synth_dataset, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "D"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--dump-dendrograms", "--out", out,
        )[0] == 0
        before = tree(out)
        orig = pathlib.Path.write_text
        calls = {"n": 0}

        def third_write_fails(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("No space left on device")
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", third_write_fails)
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.34",
            "--out", out,
        )
        assert code == 1
        assert re.fullmatch(r"io_error: [^\n]+\n", err)
        assert tree(out) == before

    def test_directory_in_the_way_keeps_the_earlier_run(self, synth_dataset, tmp_path, capsys):
        # pairs.json is moved after manifest.*, histogram.* and dissimilarity.*,
        # so a directory there must be refused before the first move.
        out = tmp_path / "D"
        args = ["select", "--input", synth_dataset, "--out", out]
        assert run(capsys, *args, "--fraction", "0.5")[0] == 0
        (out / "pairs.json").unlink()
        (out / "pairs.json").mkdir()
        before = tree(out)
        code, _, err = run(capsys, *args, "--fraction", "0.8")
        assert code == 1
        assert re.fullmatch(r"io_error: [^\n]+\n", err)
        assert tree(out) == before
        assert (out / "pairs.json").is_dir()


class TestBaselineCommand:
    """The uniform-random baseline, run as select --method uniform-random."""

    def test_artifacts_and_determinism(self, synth_dataset, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["select", "--input", synth_dataset, "--fraction", "0.5",
                "--method", "uniform-random", "--seed", "11"]
        code, stdout, _ = run(capsys, *args, "--out", a)
        assert code == 0
        assert "class 0: n=6 k=3\n" in stdout  # no largest= without clusters
        assert sorted(tree(a)) == ["manifest.json", "manifest.txt", "run_metadata.json"]
        assert run(capsys, *args, "--out", b)[0] == 0
        assert tree(a)["manifest.json"] == tree(b)["manifest.json"]
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["method"] == "uniform-random"
        assert manifest["seed"] == 11


class TestDendrogramDump:
    def test_format_and_monotone_heights(self, synth_dataset, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--dump-dendrograms", "--out", out,
        )[0] == 0
        dumped = sorted((out / "dendrograms").iterdir())
        assert [p.name for p in dumped] == ["class_0.txt", "class_1.txt"]
        for p in dumped:
            heights = []
            for line in p.read_text().splitlines():
                left, right, height, new_id = line.split()
                int(left), int(right), int(new_id)
                heights.append(float(height))
            assert len(heights) == 3  # n=6 to k=3
            assert heights == sorted(heights)


    @staticmethod
    def twins_input(tmp_path):
        """Two classes of 60 rows, a third of them exact twins."""
        rs = np.random.default_rng(8)
        X = rs.normal(size=(120, 5))
        X[rs.integers(0, 120, 40)] = X[rs.integers(0, 120, 40)]
        ds = EmbeddingDataset(np.arange(120), np.repeat([0, 1], 60), X)
        path = tmp_path / "twins.bin"
        path.write_bytes(canonical_bytes(ds))
        return path, load_dataset(path)

    @pytest.mark.parametrize("fraction", ["0.9", "0.2"])  # the threshold engine; a give-up
    def test_dump_is_the_reference_replay_byte_for_byte(self, tmp_path, capsys, fraction):
        data, ds = self.twins_input(tmp_path)
        out = tmp_path / "run"
        assert run(capsys, "select", "--input", data, "--fraction", fraction,
                   "--dump-dendrograms", "--out", out)[0] == 0
        for cid in ds.classes():
            ids, X = ds.class_arrays(cid)
            n = len(ids)
            dendro, _ = _oracles.agglomerate_naive(X, selection.per_class_k(n, float(fraction)))
            raw = zip(dendro.heights.tolist(), *dendro.pairs.T.tolist())
            text = "".join(f"{s.left} {s.right} {s.height:.17g} {s.new_id}\n"
                           for s in _oracles.canonical_steps(n, raw))
            assert (out / "dendrograms" / f"class_{cid}.txt").read_bytes() == text.encode()

    def test_select_builds_steps_only_for_a_dump(self, tmp_path, capsys, monkeypatch):
        # The cut, the medoids and every report read the partition's arrays:
        # the merges are renumbered only when dendrograms are dumped, once per
        # class, and no module ``select`` runs builds a frozenset.
        data, _ = self.twins_input(tmp_path)
        formatted = []
        fmt = redunda.cli.format_dendrogram
        monkeypatch.setattr(redunda.cli, "format_dendrogram",
                            lambda d: formatted.append(d.sample_ids.tolist()) or fmt(d))
        for dump in ((), ("--dump-dendrograms",)):
            formatted.clear()
            assert run(capsys, "select", "--input", data, "--fraction", "0.7",
                       *dump, "--out", tmp_path / "run")[0] == 0
            assert formatted == ([list(range(60)), list(range(60, 120))] if dump else [])
        for module in (redunda.cli, redunda.analysis, cluster, redunda.metric, selection,
                       redunda.store):
            assert "frozenset(" not in inspect.getsource(module), module.__name__


class TestValidateCommand:
    def test_summary(self, synth_dataset, capsys):
        code, stdout, _ = run(capsys, "validate", "--input", synth_dataset)
        assert code == 0
        first = stdout.splitlines()[0]
        assert re.fullmatch(
            r"ok: records=12 dim=8 classes=2 digest=[0-9a-f]{64}", first
        )
        assert "class 0: n=6" in stdout
        assert "class 1: n=6" in stdout

    def test_reads_a_pipe(self, synth_dataset, tmp_path, capsys):
        # as in ``redunda validate --input <(cat dataset.bin)``
        code, on_disk, _ = run(capsys, "validate", "--input", synth_dataset)
        assert code == 0
        with pipe_serving(tmp_path, synth_dataset.read_bytes()) as fifo:
            code, piped, err = run(capsys, "validate", "--input", fifo)
        assert (code, err) == (0, "")
        assert piped == on_disk

    def test_rejects_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\x00" * 40)
        code, _, err = run(capsys, "validate", "--input", bad)
        assert code == 1
        assert err.startswith("format_error: ")

    @pytest.mark.parametrize("count, dim", [(12, 0xFFFFFFFF), (2**62, 8)])
    def test_rejects_impossible_header(self, synth_dataset, tmp_path, capsys, count, dim):
        raw = synth_dataset.read_bytes()
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw[:12] + struct.pack("<QI", count, dim) + raw[24:])
        code, _, err = run(capsys, "validate", "--input", bad)
        assert code == 1
        assert re.fullmatch(r"format_error: [^\n]+\n", err)

    def test_rejects_sample_id_above_int64(self, tmp_path, capsys):
        head = struct.pack("<4sIIQI", MAGIC, FORMAT_VERSION, FLAG_EXPLICIT_IDS, 2, 2)
        body = b"".join(struct.pack("<QI2f", sid, 0, 1.0, 0.0) for sid in (7, 2**63))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(head + body)
        code, _, err = run(capsys, "validate", "--input", bad)
        assert code == 1
        assert err == "validation_error: record 1: sample_id exceeds supported range\n"

    def test_rejects_zero_dimension(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(struct.pack("<4sIIQI", MAGIC, FORMAT_VERSION, 0, 0, 0))
        code, _, err = run(capsys, "validate", "--input", bad)
        assert code == 1
        assert err == f"format_error: {bad}: dimension must be positive, got 0\n"


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "redunda" in capsys.readouterr().out

    def test_module_invocation(self, tmp_path, monkeypatch):
        # The child imports the package these tests import, installed or not.
        src = str(pathlib.Path(redunda.__file__).parents[1])
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "redunda.cli", *map(str, SYNTH),
             "--out", tmp_path / "g"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "g" / "dataset.bin").exists()


class TestCliSurface:
    """One entry point per behaviour: removed knobs stay removed."""

    @pytest.mark.parametrize("argv", [
        ["baseline", "--fraction", "0.5", "--seed", "11"],
        ["select", "--fraction", "0.5", "--jobs", "2"],
        ["stats", "--manifest", "{manifest}"],
    ], ids=["baseline", "select-jobs", "stats"])
    def test_removed_knob_is_config_error(self, synth_dataset, tmp_path, capsys, argv):
        sel = tmp_path / "sel"
        assert run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5", "--out", sel,
        )[0] == 0
        argv = [a.format(manifest=sel / "manifest.json") for a in argv]
        code, _, err = run(
            capsys, *argv, "--input", synth_dataset, "--out", tmp_path / "r",
        )
        assert code == 1
        assert re.fullmatch(r"config_error: [^\n]+\n", err)
        assert not (tmp_path / "r").exists()

    def test_memory_cap_comes_only_from_the_flag(
        self, synth_dataset, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REDUNDA_MEMORY_CAP", "50")
        code, _, err = run(
            capsys, "select", "--input", synth_dataset, "--fraction", "0.5",
            "--out", tmp_path / "r",
        )
        assert code == 0, err

    def test_subcommands(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert set(sub.choices) == {"select", "synth", "validate"}


class TestLibrarySurface:
    """Names the package exports; adding or removing one is deliberate."""

    def test_all_is_pinned_and_resolves(self):
        assert redunda.__all__ == [
            "ClassResult", "ConfigError", "DegenerateClusterError", "Dendrogram",
            "EmbeddingDataset", "FormatError", "InvalidArgumentError", "MarginError",
            "MemoryCapError", "Partition", "PlantedSpec",
            "RedundaError", "SeparationCertificate", "SubsetManifest",
            "UnknownClassError", "ValidationError", "__version__",
            "agglomerate_fast", "avg_dissimilarity", "build_cluster_subset",
            "build_random_subset", "cosine_dissimilarity", "cut_dendrogram",
            "generate", "load_dataset", "measure_separation", "nearest_excluded",
            "pairwise_condensed", "per_class_k", "select_representative",
            "size_histogram",
        ]
        assert redunda.__all__ == sorted(redunda.__all__)
        assert all(hasattr(redunda, name) for name in redunda.__all__)
