"""End-to-end tests for the experiment CLI: exit codes, files, determinism."""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from tsyblearn import certificate, cli
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MarginalSpec,
    constant_rate,
    read_binary,
    read_text,
    sample_batch,
    write_binary,
)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestGenerate:
    def test_zero_n_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "--n", 0
        ) == cli.EXIT_USAGE

    def test_negative_n_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "--n", -5
        ) == cli.EXIT_USAGE

    def test_unknown_family_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "--family", "cauchy",
            "--n", 100,
        ) == cli.EXIT_USAGE

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            code = run_cli(
                "generate", "--output-dir", tmp_path / sub, "-d", 3,
                "--n", 2_000, "--seed", 11,
            )
            assert code == cli.EXIT_OK
        a = (tmp_path / "a" / "dataset.txt").read_bytes()
        b = (tmp_path / "b" / "dataset.txt").read_bytes()
        assert a == b

    def test_flip_rate_summary(self, tmp_path, capsys):
        code = run_cli(
            "generate", "--output-dir", tmp_path, "-d", 4, "--n", 100_000,
            "--eta0", 0.3, "--seed", 7,
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        match = re.search(r"flip_rate=([0-9.]+)", out)
        assert match is not None
        assert float(match.group(1)) == pytest.approx(0.3, abs=0.005)
        assert (tmp_path / "effective_config.json").exists()
        assert (tmp_path / "meta.json").exists()

    def test_text_roundtrip_bit_exact(self, tmp_path):
        code = run_cli(
            "generate", "--output-dir", tmp_path, "-d", 3, "--n", 500,
            "--eta0", 0.3, "--seed", 1,
        )
        assert code == cli.EXIT_OK
        batch, seed = read_text(tmp_path / "dataset.txt")
        inst = InstanceSpec(
            MarginalSpec(Family.STANDARD_GAUSSIAN, 3),
            np.array([1.0, 0.0, 0.0]),
            constant_rate(0.5, 0.3),
            seed=1,
        )
        expect = sample_batch(inst, 500, batch=0)
        assert seed == 1
        assert np.array_equal(batch.x, expect.x)
        assert np.array_equal(batch.y, expect.y)

    def test_binary_roundtrip_bit_exact(self, tmp_path):
        code = run_cli(
            "generate", "--output-dir", tmp_path, "-d", 3, "--n", 500,
            "--format", "binary", "--seed", 3,
        )
        assert code == cli.EXIT_OK
        batch = read_binary(tmp_path / "dataset.bin")
        inst = InstanceSpec(
            MarginalSpec(Family.STANDARD_GAUSSIAN, 3),
            np.array([1.0, 0.0, 0.0]),
            constant_rate(0.5, 0.1),
            seed=3,
        )
        expect = sample_batch(inst, 500, batch=0)
        assert np.array_equal(batch.x, expect.x)
        assert np.array_equal(batch.y, expect.y)

    @pytest.mark.parametrize(
        "target", ["0,1,0", "0 2 0", [0, 1, 0], [0.0, 2.0, 0.0]],
        ids=["flag", "flag_spaces", "file_list", "file_list_nonunit"],
    )
    def test_explicit_target_is_planted(self, tmp_path, target):
        argv = ["generate", "--output-dir", tmp_path, "-d", 3, "--n", 100]
        if isinstance(target, str):
            argv += ["--target", target]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"instance": {"target": target}}))
            argv += ["--config", cfg_path]
        assert run_cli(*argv) == cli.EXIT_OK
        effective = json.loads((tmp_path / "effective_config.json").read_text())
        assert effective["resolved"]["target"] == [0.0, 1.0, 0.0]
        assert effective["instance"]["target"] == target

    def test_target_in_config_string(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"target": "0, 0, 1"}}))
        assert run_cli(
            "generate", "--config", cfg_path, "--output-dir", tmp_path,
            "-d", 3, "--n", 100,
        ) == cli.EXIT_OK
        effective = json.loads((tmp_path / "effective_config.json").read_text())
        assert effective["resolved"]["target"] == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("target", ["1,0", "0,0,0", "1,nan,0"])
    def test_bad_target_exits_usage(self, tmp_path, target):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "-d", 3, "--n", 100,
            "--target", target,
        ) == cli.EXIT_USAGE

    def test_bad_format_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "--n", 10,
            "--format", "parquet",
        ) == cli.EXIT_USAGE


class TestCertify:
    def test_fail_at_target_exits_3(self, tmp_path):
        code = run_cli(
            "certify", "--output-dir", tmp_path, "--w", "1,0,0",
            "--eta0", 0.0, "--epsilon", 0.15, "--seed", 0,
        )
        assert code == cli.EXIT_FAIL
        payload = json.loads((tmp_path / "witness.json").read_text())
        assert payload["certified"] is False
        assert payload["witness"] is None

    def test_perpendicular_witness_exits_0(self, tmp_path):
        code = run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,1,0",
            "--eta0", 0.0, "--epsilon", 0.15, "--samples-n", 100_000,
            "--oracle-samples", 100_000, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "witness.json").read_text())
        assert payload["certified"] is True
        assert payload["witness"]["value"] < 0.0

    def test_warm_start_at_sample_floor_is_not_a_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,1,0",
            "--family", "laplace", "--oracle", "LogConcaveWarmStart",
            "--warm-samples", 100,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        assert "error:" not in capsys.readouterr().err

    def test_epsilon_above_one_still_accepted(self, tmp_path):
        # Only learn and sweep turn epsilon into an error budget.
        code = run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,1,0",
            "--epsilon", 1.2, "--samples-n", 20_000, "--oracle-samples", 20_000,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)

    def test_malformed_vector_exits_usage(self, tmp_path):
        assert run_cli(
            "certify", "--output-dir", tmp_path, "--w", "1,banana,0"
        ) == cli.EXIT_USAGE

    def test_missing_w_exits_usage(self, tmp_path):
        assert run_cli("certify", "--output-dir", tmp_path) == cli.EXIT_USAGE

    def test_nonunit_w_normalized(self, tmp_path):
        code = run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,2,0",
            "--eta0", 0.0, "--epsilon", 0.15, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "witness.json").read_text())
        assert payload["queried_w"] == pytest.approx([0.0, 1.0, 0.0])

    def test_w_list_in_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"w": [0, 2, 0]}))
        code = run_cli(
            "certify", "--config", cfg_path, "--output-dir", tmp_path,
            "--eta0", 0.0, "--samples-n", 5_000, "--oracle-samples", 5_000,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        payload = json.loads((tmp_path / "witness.json").read_text())
        assert payload["queried_w"] == [0.0, 1.0, 0.0]

    def test_auto_c_in_config_exits_usage(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"auto_c": True}))
        assert run_cli(
            "certify", "--config", cfg_path, "--w", "0,1,0",
            "--output-dir", tmp_path / "out",
        ) == cli.EXIT_USAGE
        assert "auto_c" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_text_mode(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 100_000, "--eta0", 0.0, "--seed", 2,
        ) == cli.EXIT_OK
        code = run_cli(
            "certify", "--output-dir", tmp_path / "cert",
            "--dataset", tmp_path / "ds" / "dataset.txt", "--w", "0,1,0",
            "--epsilon", 0.15, "--oracle-samples", 2_000, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "cert" / "witness.json").read_text())
        assert payload["certified"] is True
        assert payload["witness"]["value"] < 0.0
        assert payload["oracle"] == "dataset-scan"

    def test_dataset_binary_mode(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 50_000, "--format", "binary", "--eta0", 0.0, "--seed", 3,
        ) == cli.EXIT_OK
        code = run_cli(
            "certify", "--output-dir", tmp_path / "cert",
            "--dataset", tmp_path / "ds" / "dataset.bin", "--w", "0,0,1",
            "--epsilon", 0.15, "--oracle-samples", 2_000, "--seed", 0,
        )
        assert code == cli.EXIT_OK

    def test_dataset_dimension_mismatch_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 1_000, "--seed", 2,
        ) == cli.EXIT_OK
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert",
            "--dataset", tmp_path / "ds" / "dataset.txt", "--w", "0,1,0,0",
        ) == cli.EXIT_USAGE

    def test_missing_dataset_exits_usage(self, tmp_path):
        assert run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,1,0",
            "--dataset", tmp_path / "nope.txt",
        ) == cli.EXIT_USAGE

    def test_truncated_binary_header_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 10, "--format", "binary", "--seed", 2,
        ) == cli.EXIT_OK
        path = tmp_path / "ds" / "dataset.bin"
        path.write_bytes(path.read_bytes()[:9])
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE

    def test_non_finite_binary_dataset_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 1_000, "--format", "binary", "--seed", 2,
        ) == cli.EXIT_OK
        path = tmp_path / "ds" / "dataset.bin"
        raw = bytearray(path.read_bytes())
        # Header of 17 bytes, then records of 3 float64 coordinates and a label.
        offset = 17 + 25 * 500 + 8
        raw[offset : offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(raw))
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "content",
        [
            b"a b c\n0 1 0 1\n",
            b"3 1 0\n0 x 0 1\n",
            b"3 1 0\n0 1 0 1 \xe9\n",
            b"3 2 0\nnan 1 0 1\n0 inf 0 -1\n",
            b"3 1 0\n0 1 0 257\n",
        ],
        ids=["header", "coordinate", "non_ascii", "non_finite", "label"],
    )
    def test_malformed_text_dataset_exits_usage(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_bytes(content)
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE

    def test_dataset_unknown_family_exits_usage(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 100, "--seed", 2,
        ) == cli.EXIT_OK
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", tmp_path / "ds" / "dataset.txt", "--family", "cauchy",
        ) == cli.EXIT_USAGE


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_empty_round_batch_is_no_evidence(self, tmp_path, seed):
        # 300 rows per round leave some rounds without a band row.
        assert run_cli(
            "certify", "--output-dir", tmp_path, "--w", "0,1,0",
            "--oracle-samples", 300, "--seed", seed,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)

    def test_five_row_binary_dataset_runs(self, tmp_path):
        # Rounds of one row each; only the second row is in the band, so the
        # first round has no band row.
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 5, "--format", "binary", "--seed", 3,
        ) == cli.EXIT_OK
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", tmp_path / "ds" / "dataset.bin",
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)
        json.loads((tmp_path / "cert" / "witness.json").read_text())

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_zero_row_dataset_exits_usage(self, tmp_path, capsys, fmt):
        path = tmp_path / "empty.data"
        if fmt == "text":
            path.write_text("3 0 1\n")
        else:
            write_binary(path, LabeledBatch(x=np.zeros((0, 3)), y=np.zeros(0)))
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "cert" / "witness.json").exists()

    def test_binary_dataset_errors_name_the_file(self, tmp_path, capsys):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 5, "--format", "binary", "--seed", 2,
        ) == cli.EXIT_OK
        path = tmp_path / "ds" / "dataset.bin"
        clean = path.read_bytes()
        bad_label = bytearray(clean)
        bad_label[17 + 25 * 4 + 24] = 0  # the last row's label
        for content in (clean + b"\x00", bytes(bad_label)):
            path.write_bytes(content)
            assert run_cli(
                "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
                "--dataset", path,
            ) == cli.EXIT_USAGE
            assert str(path) in capsys.readouterr().err

    def test_non_finite_last_chunk_exits_before_any_round(self, tmp_path, monkeypatch):
        n = 20_000  # three read chunks
        data = sample_batch(
            InstanceSpec(MarginalSpec(Family.STANDARD_GAUSSIAN, 3),
                         np.array([1.0, 0.0, 0.0]), constant_rate(0.5, 0.2), 5),
            n,
        )
        data.x[n - 1, 0] = np.nan
        path = tmp_path / "data.bin"
        write_binary(path, data)

        def no_round(*args, **kwargs):
            raise AssertionError("a search round ran")

        monkeypatch.setattr(certificate, "compute_certificate", no_round)
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE

    def test_binary_dataset_memory_is_a_fraction_of_the_file(self, tmp_path):
        # The search keeps only the band's rows, not the file's.
        n, d = 200_000, 20
        target = np.zeros(d)
        target[0] = 1.0
        spec = InstanceSpec(MarginalSpec(Family.STANDARD_GAUSSIAN, d), target,
                            constant_rate(0.5, 0.2), 7)
        path = tmp_path / "data.bin"
        write_binary(path, sample_batch(spec, n))
        payload = n * (8 * d + 1)
        w = ",".join(["0.6", "0.8"] + ["0"] * (d - 2))
        tracemalloc.start()
        try:
            code = run_cli(
                "certify", "--output-dir", tmp_path / "cert", "--w", w,
                "--dataset", path, "--eta0", 0.2, "--oracle-samples", 50_000,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        assert peak < payload / 4


class TestLearn:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_empty_round_batch_is_no_evidence(self, tmp_path, seed):
        # 300 oracle rows per round leave some rounds without a band row.
        assert run_cli(
            "learn", "--output-dir", tmp_path, "--family", "gaussian", "-d", 5,
            "--oracle", "WellBehavedRandomInit", "--oracle-samples", 300,
            "--start", "zero", "--epsilon", 0.15, "--seed", seed,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)

    def test_epsilon_out_of_range_exits_usage(self, tmp_path):
        code = run_cli(
            "learn", "--output-dir", tmp_path, "--epsilon", 2 * math.pi
        )
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "-d", 3, "--epsilon", 1.2, "--start", "e1"],
            ["sweep", "--sweep-epsilon", 1.2],
        ],
        ids=["learn", "sweep"],
    )
    def test_epsilon_above_one_exits_usage_before_compute(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # A run's error budget needs epsilon <= 1; no learn may start.
        def no_learn(*args):
            raise AssertionError("learn ran")

        monkeypatch.setattr(cli, "learn", no_learn)
        assert run_cli(*argv, "--output-dir", tmp_path / "out") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "learner.epsilon" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_warm_start_at_sample_floor_is_not_an_error(self, tmp_path, capsys):
        # 100 warm-start rows leave a band of a few rows: a failed guess.
        code = run_cli(
            "learn", "--output-dir", tmp_path, "-d", 3, "--family", "laplace",
            "--oracle", "LogConcaveWarmStart", "--warm-samples", 100,
        )
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        assert "error:" not in capsys.readouterr().out
        rows = read_rows(tmp_path / "metrics.csv")
        assert not rows[0]["stop_reason"].startswith("error")

    def test_pipeline_hits_with_random_init_oracle(self, tmp_path):
        code = run_cli(
            "learn", "--output-dir", tmp_path, "-d", 5, "--eta0", 0.2,
            "--epsilon", 0.15, "--start", "zero",
            "--oracle-samples", 200_000, "--repeats", 10, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        rows = read_rows(tmp_path / "metrics.csv")
        assert len(rows) == 10
        with open(tmp_path / "metrics.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header == cli.METRICS_HEADER
        hits = 0
        for row in rows:
            assert row["schema_version"] == "1"
            assert row["wall_ms"] == "0"
            assert 0.0 <= float(row["final_angle"]) <= math.pi
            assert 0.0 <= float(row["final_01_error"]) <= 1.0
            hits += float(row["final_angle"]) <= 0.15
        assert hits >= 8
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["final_angle"] == float(rows[0]["final_angle"])
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "effective_config.json").exists()

    def test_pipeline_hits_with_warm_start_oracle(self, tmp_path):
        code = run_cli(
            "learn", "--output-dir", tmp_path, "-d", 5, "--eta0", 0.2,
            "--epsilon", 0.15, "--start", "zero",
            "--oracle", "LogConcaveWarmStart", "--repeats", 10, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        rows = read_rows(tmp_path / "metrics.csv")
        hits = sum(float(r["final_angle"]) <= 0.15 for r in rows)
        assert hits >= 8

    def test_repeat_csv_determinism(self, tmp_path):
        argv = [
            "learn", "-d", 3, "--eta0", 0.1, "--epsilon", 0.2,
            "--start", "zero", "--samples-n", 50_000,
            "--oracle-samples", 50_000, "--repeats", 3, "--seed", 5,
        ]
        assert run_cli(*argv, "--output-dir", tmp_path / "a") == cli.EXIT_OK
        assert run_cli(*argv, "--output-dir", tmp_path / "b") == cli.EXIT_OK
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "model.json").read_bytes() == (
            tmp_path / "b" / "model.json"
        ).read_bytes()
        assert (tmp_path / "a" / "trace.jsonl").read_bytes() == (
            tmp_path / "b" / "trace.jsonl"
        ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": {"dimension": 3},
            "learner": {"epsilon": 0.2, "samples_n": 1_000, "max_rounds": 2,
                        "start": "e1"},
            "oracle_samples": 1_000,
        }))
        code = run_cli(
            "learn", "--config", cfg_path, "--output-dir", tmp_path / "out",
            "--epsilon", 0.25,
        )
        assert code == cli.EXIT_OK
        effective = json.loads(
            (tmp_path / "out" / "effective_config.json").read_text()
        )
        assert effective["learner"]["epsilon"] == 0.25
        assert effective["instance"]["dimension"] == 3

    def test_unknown_config_key_exits_usage(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instanec": {}}))
        assert run_cli(
            "learn", "--config", cfg_path, "--output-dir", tmp_path
        ) == cli.EXIT_USAGE

    def test_invalid_json_config_exits_usage(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert run_cli(
            "learn", "--config", cfg_path, "--output-dir", tmp_path
        ) == cli.EXIT_USAGE


class TestWarmstart:
    def test_uniform_ball_runs(self, tmp_path):
        code = run_cli(
            "warmstart", "--output-dir", tmp_path, "--family", "uniform_ball",
            "-d", 3, "--theta0", 1.3, "--epsilon", 0.2, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "warmstart.json").read_text())
        assert payload["repeats"] == 1
        assert len(payload["runs"]) == 1

    def test_gaussian_hit_rate(self, tmp_path):
        code = run_cli(
            "warmstart", "--output-dir", tmp_path, "-d", 3, "--theta0", 1.3,
            "--eta0", 0.0, "--epsilon", 0.2, "--repeats", 20, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "warmstart.json").read_text())
        assert payload["repeats"] == 20
        assert payload["hits_at_0.05"] >= 6
        correlations = [
            run["correlation"] for run in payload["runs"]
            if "correlation" in run
        ]
        assert all(-1.0 - 1e-9 <= c <= 1.0 + 1e-9 for c in correlations)

    def test_unknown_family_exits_usage(self, tmp_path):
        assert run_cli(
            "warmstart", "--output-dir", tmp_path, "--family", "pareto"
        ) == cli.EXIT_USAGE

    @pytest.mark.parametrize("w", ["0,0,0", "1,0", "1,0,0,0"])
    def test_bad_w_exits_usage(self, tmp_path, w):
        assert run_cli(
            "warmstart", "--output-dir", tmp_path, "-d", 3, "--w", w,
        ) == cli.EXIT_USAGE
        assert not (tmp_path / "warmstart.json").exists()

    def test_default_w_parallel_to_target_has_no_correlation(self, tmp_path):
        # The default w (e1) is the default target: no orthogonal component.
        code = run_cli(
            "warmstart", "--output-dir", tmp_path, "--repeats", 2,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "warmstart.json").read_text())
        assert [run["correlation"] for run in payload["runs"]] == [None, None]
        assert payload["hits_at_0.05"] == 0

    def test_determinism(self, tmp_path):
        argv = [
            "warmstart", "-d", 3, "--theta0", 1.0, "--epsilon", 0.2,
            "--repeats", 3, "--seed", 4,
        ]
        assert run_cli(*argv, "--output-dir", tmp_path / "a") == cli.EXIT_OK
        assert run_cli(*argv, "--output-dir", tmp_path / "b") == cli.EXIT_OK
        assert (tmp_path / "a" / "warmstart.json").read_bytes() == (
            tmp_path / "b" / "warmstart.json"
        ).read_bytes()


class TestSweep:
    def test_missing_grid_exits_usage(self, tmp_path):
        assert run_cli(
            "sweep", "--output-dir", tmp_path
        ) == cli.EXIT_USAGE

    def test_empty_list_grid_exits_usage(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"n": []}}))
        assert run_cli(
            "sweep", "--config", cfg_path, "--output-dir", tmp_path
        ) == cli.EXIT_USAGE

    def test_unknown_sweep_key_exits_usage(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"gamma": [1, 2]}}))
        assert run_cli(
            "sweep", "--config", cfg_path, "--output-dir", tmp_path
        ) == cli.EXIT_USAGE

    def test_bad_workers_env_exits_usage(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSYBLEARN_WORKERS", "many")
        assert run_cli(
            "sweep", "--output-dir", tmp_path, "--sweep-n", "1000",
        ) == cli.EXIT_USAGE

    def test_median_angle_non_increasing_in_n(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSYBLEARN_WORKERS", "2")
        code = run_cli(
            "sweep", "--output-dir", tmp_path, "-d", 5, "--eta0", 0.2,
            "--epsilon", 0.15, "--start", "zero",
            "--sweep-n", "1000,10000,100000", "--repeats", 3, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        medians = [
            summary[json.dumps({"n": n})]["median_final_angle"]
            for n in (1_000, 10_000, 100_000)
        ]
        assert all(m is not None for m in medians)
        inversions = sum(b > a for a, b in zip(medians, medians[1:]))
        assert inversions <= 1

    def test_alpha_ordering(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TSYBLEARN_WORKERS", "2")
        code = run_cli(
            "sweep", "--output-dir", tmp_path, "-d", 5,
            "--noise", "margin_power_law", "--scale", 0.5,
            "--epsilon", 0.15, "--start", "zero", "--samples-n", 50_000,
            "--sweep-alpha", "0.5,0.8", "--repeats", 5, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        low = summary[json.dumps({"alpha": 0.5})]["median_final_angle"]
        high = summary[json.dumps({"alpha": 0.8})]["median_final_angle"]
        assert high <= low + 0.05

    def test_stray_error_is_a_failed_job(self, tmp_path, monkeypatch):
        # An error outside the package hierarchy in one grid point costs
        # that point's row, not the sweep and its summary.
        real = cli._run_learn_once

        def flaky(cfg, repeat):
            if cfg["instance"]["dimension"] == 4:
                raise ValueError("stray")
            return real(cfg, repeat)

        monkeypatch.setenv("TSYBLEARN_WORKERS", "1")
        monkeypatch.setattr(cli, "_run_learn_once", flaky)
        code = run_cli(
            "sweep", "--output-dir", tmp_path, "--eta0", 0.1, "--epsilon", 0.2,
            "--start", "zero", "--samples-n", 2_000, "--sweep-d", "3,4",
            "--seed", 0,
        )
        assert code == cli.EXIT_OK
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary) == [json.dumps({"d": 3})]
        rows = read_rows(tmp_path / "metrics.csv")
        assert [r["dimension"] for r in rows] == ["3"]

    def test_worker_count_invariance(self, tmp_path, monkeypatch):
        argv = [
            "sweep", "-d", 3, "--eta0", 0.1, "--epsilon", 0.2,
            "--start", "zero", "--sweep-n", "1000,5000", "--repeats", 2,
            "--seed", 3,
        ]
        monkeypatch.setenv("TSYBLEARN_WORKERS", "1")
        assert run_cli(*argv, "--output-dir", tmp_path / "a") == cli.EXIT_OK
        monkeypatch.setenv("TSYBLEARN_WORKERS", "2")
        assert run_cli(*argv, "--output-dir", tmp_path / "b") == cli.EXIT_OK
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "generate" in capsys.readouterr().out

    def test_unknown_command_exits_usage(self, capsys):
        assert run_cli("frobnicate") == cli.EXIT_USAGE

    def test_unexpected_error_exits_internal(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise ValueError("unexpected")

        monkeypatch.setitem(cli.COMMANDS, "generate", (boom, ""))
        assert run_cli(
            "generate", "--output-dir", tmp_path
        ) == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "ValueError: unexpected" in err

    def test_option_strings_per_command(self):
        shared = {
            "-h", "--help", "--config", "-v", "--verbose", "--output-dir",
            "--seed", "--family", "--noise", "--alpha", "--eta0", "--big-a",
            "--scale", "--sectors", "--profile-seed", "--theta0", "--target",
        }
        common = shared | {"-d", "--dimension"}
        runs = common | {
            "--epsilon", "--delta", "--rho-eps", "--max-rounds",
            "--samples-n", "--start", "--oracle", "--oracle-samples",
            "--warm-samples", "--repeats", "--eval-n",
        }
        expected = {
            "generate": common | {"--n", "--format", "--out"},
            "certify": shared | {
                "--epsilon", "--delta", "--samples-n", "--oracle",
                "--oracle-samples", "--warm-samples", "--w", "--dataset",
            },
            "learn": runs,
            "warmstart": common | {
                "--epsilon", "--warm-samples", "--repeats", "--w",
            },
            "sweep": runs | {
                "--sweep-alpha", "--sweep-big-a", "--sweep-d", "--sweep-n",
                "--sweep-epsilon",
            },
        }
        parser = cli.build_parser()
        (sub,) = [
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()
        }
        assert found == expected

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("certify", "--repeats", "5"),
            ("certify", "--eval-n", "7"),
            ("certify", "--max-rounds", "99"),
            ("certify", "--rho-eps", "0.5"),
            ("certify", "--start", "e1"),
            ("certify", "--auto-c", None),
            ("certify", "-d", "5"),
            ("warmstart", "--oracle", "LogConcaveWarmStart"),
            ("warmstart", "--oracle-samples", "1000"),
            ("warmstart", "--samples-n", "1000"),
            ("warmstart", "--max-rounds", "3"),
            ("warmstart", "--delta", "0.1"),
            ("warmstart", "--rho-eps", "0.5"),
            ("warmstart", "--start", "e1"),
            ("warmstart", "--eval-n", "7"),
        ],
        ids=lambda v: "-" if v is None else v.strip("-"),
    )
    def test_flag_the_command_does_not_read_exits_usage(
        self, tmp_path, capsys, command, flag, value
    ):
        argv = [command, "--w", "0,1,0", flag]
        argv += [] if value is None else [value]
        assert run_cli(*argv, "--output-dir", tmp_path / "out") == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_usage_metavars_name_the_flag(self, capsys):
        assert run_cli("learn", "--help") == 0
        out = capsys.readouterr().out
        assert "-d DIMENSION" in out
        assert "--big-a BIG_A" in out
        assert "INSTANCE." not in out

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "tsyblearn", "generate",
             "--output-dir", str(tmp_path), "-d", "2", "--n", "100"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "dataset.txt").exists()


class TestConfigChecks:
    """Every value from a file, a flag or a sweep grid is type-checked."""

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"learner": {"epsilonn": 0.3}}, "learner.epsilonn"),
            ({"instance": {"noise": 3}}, "instance.noise"),
            ({"instance": {"dimension": "five"}}, "instance.dimension"),
            ({"instance": {"dimension": 5.0}}, "instance.dimension"),
            ({"learner": {"max_rounds": None}}, "learner.max_rounds"),
            ({"instance": {"noise": {"alpha": "x"}}}, "instance.noise.alpha"),
            ({"instance": {"noise": {"eta0": float("nan")}}},
             "instance.noise.eta0"),
            ({"instance": {"noise": {"eta0": 10**400}}}, "instance.noise.eta0"),
            ({"repeats": "2"}, "repeats"),
            ({"repeats": True}, "repeats"),
            ({"oracle": "Nope"}, "oracle"),
            ({"instance": {"target": [1, "0", 0, 0, 0]}}, "instance.target"),
            ({"w": 3}, "w"),
            ({"sweep": {"d": [3.5]}}, "sweep.d"),
            ({"sweep": {"n": 1000}}, "sweep.n"),
            ({"sweep": [1, 2]}, "sweep"),
            ({"sweep": {"epsilon": [0.2, 4.0]}}, "sweep.epsilon"),
        ],
        ids=[
            "nested_unknown", "group_not_object", "int_as_string",
            "int_as_float", "null_not_nullable", "float_as_string", "nan",
            "int_beyond_float",
            "count_as_string", "count_as_bool", "choice", "vector_item",
            "vector_type", "grid_float_for_int", "grid_not_list",
            "grid_not_object", "grid_angle_beyond_pi",
        ],
    )
    def test_bad_config_value_exits_usage(self, tmp_path, capsys, config, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(
            "learn", "--config", cfg_path, "--output-dir", tmp_path / "out"
        ) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "--oracle-samples", "0"],
            ["certify", "--w", "0,1,0", "--oracle-samples", "0"],
            ["learn", "--eval-n", "0"],
            ["warmstart", "--warm-samples", "99"],
            ["learn", "--repeats", "0"],
            ["learn", "--theta0", "nan"],
            ["learn", "--scale", "inf"],
            ["learn", "--epsilon", "nan"],
            ["sweep", "--epsilon", "0"],
            ["certify", "--w", "0,1,0", "--epsilon", "100"],
            ["warmstart", "-d", "3", "--epsilon", "100", "--theta0", "1.0"],
            ["generate", "--alpha", "-inf"],
            ["sweep", "--sweep-d", "3.5"],
            ["sweep", "--sweep-d", "3.0"],
            ["sweep", "--sweep-n", "0"],
            ["sweep", "--sweep-alpha", "0.5,nan"],
        ],
        ids=lambda argv: "_".join(a.strip("-") for a in argv),
    )
    def test_bad_flag_value_exits_usage_before_compute(
        self, tmp_path, capsys, argv
    ):
        assert run_cli(*argv, "--output-dir", tmp_path / "out") == cli.EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_grid_from_file_and_flag(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"n": [2_000, 3_000]}}))
        monkeypatch.setenv("TSYBLEARN_WORKERS", "1")
        assert run_cli(
            "sweep", "--config", cfg_path, "--output-dir", tmp_path / "out",
            "--sweep-d", "3", "--start", "zero", "--epsilon", "0.2",
        ) == cli.EXIT_OK
        effective = json.loads(
            (tmp_path / "out" / "effective_config.json").read_text()
        )
        assert effective["sweep"] == {"n": [2_000, 3_000], "d": [3]}
        rows = read_rows(tmp_path / "out" / "metrics.csv")
        assert [(r["dimension"], r["n"]) for r in rows] == [
            ("3", "2000"), ("3", "3000")
        ]


class TestEffectiveConfig:
    """A run's effective_config.json, passed back as --config, reproduces it."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (
                ["learn", "-d", 3, "--eta0", 0.1, "--epsilon", 0.2,
                 "--start", "zero", "--samples-n", 20_000,
                 "--oracle-samples", 5_000, "--max-rounds", 4,
                 "--repeats", 2, "--eval-n", 1_000, "--seed", 4],
                ["metrics.csv", "model.json", "trace.jsonl"],
            ),
            (
                ["certify", "--w", "0,2,0", "--theta0", 0.4,
                 "--eta0", 0.0, "--samples-n", 20_000,
                 "--oracle-samples", 20_000, "--seed", 1],
                ["witness.json"],
            ),
            (
                ["certify", "--dataset", "DATASET", "--w", "0,1,0",
                 "--epsilon", 0.15, "--oracle-samples", 2_000, "--seed", 0],
                ["witness.json"],
            ),
            (
                ["warmstart", "-d", 3, "--theta0", 1.3, "--epsilon", 0.2,
                 "--w", "0,0,1", "--repeats", 2, "--warm-samples", 50_000,
                 "--seed", 2],
                ["warmstart.json"],
            ),
        ],
        ids=["learn", "certify_instance", "certify_dataset", "warmstart"],
    )
    def test_rerun_from_effective_config(self, tmp_path, argv, outputs):
        if "DATASET" in argv:
            assert run_cli(
                "generate", "--output-dir", tmp_path / "ds", "-d", 3,
                "--n", 20_000, "--eta0", 0.0, "--seed", 2,
            ) == cli.EXIT_OK
            argv[argv.index("DATASET")] = tmp_path / "ds" / "dataset.txt"
        first = run_cli(*argv, "--output-dir", tmp_path / "a")
        assert first in (cli.EXIT_OK, cli.EXIT_FAIL)
        assert run_cli(
            argv[0], "--config", tmp_path / "a" / "effective_config.json",
            "--output-dir", tmp_path / "b",
        ) == first
        for name in outputs:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        a, b = (
            json.loads((tmp_path / sub / "effective_config.json").read_text())
            for sub in ("a", "b")
        )
        assert {**a, "output_dir": None} == {**b, "output_dir": None}

    def test_instance_certify_records_dimension_of_w(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"dimension": 5}}))
        assert run_cli(
            "certify", "--config", cfg_path, "--w", "0,1,0", "--eta0", 0.0,
            "--samples-n", 5_000, "--oracle-samples", 5_000,
            "--output-dir", tmp_path,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)
        effective = json.loads((tmp_path / "effective_config.json").read_text())
        assert effective["instance"]["dimension"] == 3
        assert len(effective["resolved"]["target"]) == 3
