"""End-to-end tests for the experiment CLI: exit codes, files, determinism."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tsyblearn import certificate, cli, warmstart
from tsyblearn.learner import StopReason
from tsyblearn.synthetic import (
    Family,
    InstanceSpec,
    LabeledBatch,
    MAX_SECTORS,
    MarginalSpec,
    constant_rate,
    open_dataset,
    read_text,
    sample_batch,
    write_binary,
)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def src_env() -> dict:
    """This process's environment, with this checkout's ``src`` first on
    ``PYTHONPATH``, for a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_sectors_above_the_cap_exits_usage(self, tmp_path, capsys, source):
        argv = ["generate", "--output-dir", tmp_path / "out", "-d", 3, "--n", 10,
                "--noise", "adversarialish"]
        if source == "flag":
            argv += ["--sectors", MAX_SECTORS + 1]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                {"instance": {"noise": {"sectors": MAX_SECTORS + 1}}}
            ))
            argv += ["--config", cfg_path]
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert f"sectors must lie in [1, {MAX_SECTORS}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    #: A value off each noise key's default.
    FOREIGN = {"eta0": 0.3, "scale": 2.0, "sectors": 20, "profile_seed": 5}

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("profile, key", [
        (profile, key)
        for profile in cli.NOISE_PROFILES
        for owner, keys in cli.NOISE_PROFILES.items() if owner != profile
        for key in keys
    ])
    def test_a_key_its_profile_ignores_exits_usage(
        self, tmp_path, capsys, profile, key, source
    ):
        # The value would shape nothing, yet effective_config.json would
        # record it: exit 2 before any output, naming the key and profile.
        argv = ["generate", "--output-dir", tmp_path / "out", "-d", 3,
                "--n", 10, "--noise", profile]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), self.FOREIGN[key]]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(
                {"instance": {"noise": {key: self.FOREIGN[key]}}}
            ))
            argv += ["--config", cfg_path]
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"instance.noise.{key} is read only by the" in err
        assert f"not by {profile}" in err
        assert not (tmp_path / "out").exists()

    def test_a_foreign_key_at_its_default_is_accepted(self, tmp_path):
        # Every effective_config.json records all four keys, at their
        # defaults where the profile does not read them, and loads back.
        first = tmp_path / "first"
        assert run_cli(
            "generate", "--output-dir", first, "-d", 3, "--n", 10,
            "--noise", "margin_power_law", "--sectors", 12, "--eta0", 0.1,
        ) == cli.EXIT_OK
        assert run_cli(
            "generate", "--config", first / "effective_config.json",
            "--output-dir", tmp_path / "again",
        ) == cli.EXIT_OK
        assert (first / "dataset.txt").read_bytes() == (
            tmp_path / "again" / "dataset.txt"
        ).read_bytes()

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

    def test_meta_records_numpy_and_blas(self, tmp_path):
        code = run_cli("generate", "--output-dir", tmp_path, "-d", 3, "--n", 10)
        assert code == cli.EXIT_OK
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["wall_ms"]["generate"] >= 0.0
        assert meta["numpy"] == np.__version__
        assert set(meta["blas"]) == {"name", "version", "openblas configuration"}

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
        ((_, x, y),) = open_dataset(tmp_path / "dataset.bin").chunks()
        inst = InstanceSpec(
            MarginalSpec(Family.STANDARD_GAUSSIAN, 3),
            np.array([1.0, 0.0, 0.0]),
            constant_rate(0.5, 0.1),
            seed=3,
        )
        expect = sample_batch(inst, 500, batch=0)
        assert np.array_equal(x, expect.x)
        assert np.array_equal(y, expect.y)

    def test_out_names_a_file_in_the_output_dir(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path, "-d", 3, "--n", 10,
            "--out", "mine.txt",
        ) == cli.EXIT_OK
        assert (tmp_path / "mine.txt").exists()

    @pytest.mark.parametrize(
        "out", ["../escaped.txt", "absolute", "sub/x.txt", ".", ".."]
    )
    def test_out_with_a_directory_part_exits_usage(self, tmp_path, capsys, out):
        # Anything but a bare file name could write outside --output-dir.
        if out == "absolute":
            out = str(tmp_path / "abs.txt")
        assert run_cli(
            "generate", "--output-dir", tmp_path / "out", "-d", 3, "--n", 10,
            "--out", out,
        ) == cli.EXIT_USAGE
        assert "out must be a file name with no directory part" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

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

    def test_overflowing_w_norm_exits_usage(self, tmp_path, capsys):
        # Each coordinate is finite, but the norm overflows to inf, so w / norm
        # would be the zero vector.
        assert run_cli(
            "certify", "--output-dir", tmp_path, "--w", "1,1e308,1e308",
            "--target", "1,0,0",
        ) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "w has a norm that overflows a float (inf)" in err
        assert "unit norm" not in err

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
        # Rows enough for the search's rounds: at 100k rows and 2000-row
        # rounds the file runs out first, and only 1 or 2 seeds in 12 certify.
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 200_000, "--eta0", 0.0, "--seed", 2,
        ) == cli.EXIT_OK
        code = run_cli(
            "certify", "--output-dir", tmp_path / "cert",
            "--dataset", tmp_path / "ds" / "dataset.txt", "--w", "0,1,0",
            "--epsilon", 0.15, "--oracle-samples", 10_000, "--seed", 0,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "cert" / "witness.json").read_text())
        assert payload["certified"] is True
        assert payload["witness"]["value"] < 0.0
        assert payload["oracle"] == "WellBehavedRandomInit"
        diagnostics = payload["diagnostics"]
        assert set(diagnostics) == {"queries", "samples_drawn", "band_mass", "n"}
        assert diagnostics["queries"] == 1
        assert diagnostics["n"] == 200_000
        assert 0 < diagnostics["samples_drawn"] <= 200_000

    def test_dataset_warm_start_oracle_exits_usage(self, tmp_path, capsys):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 1_000, "--seed", 2,
        ) == cli.EXIT_OK
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", tmp_path / "ds" / "dataset.txt",
            "--oracle", "LogConcaveWarmStart",
        ) == cli.EXIT_USAGE
        assert "oracle" in capsys.readouterr().err
        assert not (tmp_path / "cert" / "witness.json").exists()

    def test_dataset_rounds_capped_by_samples_n(self, tmp_path):
        # At 0 rad nothing certifies, so every round of the pair search
        # runs: 25 rounds of 1000 rows, well short of the file's rows.
        n = 200_000
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3, "--n", n,
            "--format", "binary", "--eta0", 0.2, "--seed", 4,
        ) == cli.EXIT_OK
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "1,0,0",
            "--dataset", tmp_path / "ds" / "dataset.bin", "--eta0", 0.2,
            "--samples-n", 1_000,
        ) == cli.EXIT_FAIL
        diagnostics = json.loads(
            (tmp_path / "cert" / "witness.json").read_text()
        )["diagnostics"]
        assert diagnostics["n"] == n
        assert diagnostics["samples_drawn"] < n
        assert "exhausted" not in diagnostics

    def test_dataset_records_its_dimension(self, tmp_path):
        assert run_cli(
            "generate", "--output-dir", tmp_path / "ds", "-d", 3,
            "--n", 20_000, "--eta0", 0.0, "--seed", 2,
        ) == cli.EXIT_OK
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"dimension": 7}}))
        first = run_cli(
            "certify", "--config", cfg_path, "--output-dir", tmp_path / "a",
            "--dataset", tmp_path / "ds" / "dataset.txt", "--w", "0,1,0",
            "--oracle-samples", 2_000,
        )
        assert first in (cli.EXIT_OK, cli.EXIT_FAIL)
        effective = json.loads((tmp_path / "a" / "effective_config.json").read_text())
        assert effective["instance"]["dimension"] == 3
        assert run_cli(
            "certify", "--config", tmp_path / "a" / "effective_config.json",
            "--output-dir", tmp_path / "b",
        ) == first
        assert (tmp_path / "a" / "witness.json").read_bytes() == (
            tmp_path / "b" / "witness.json"
        ).read_bytes()

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

    def test_huge_dimension_binary_header_exits_usage(self, tmp_path, capsys):
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<5sIQ", b"THSD1", 2**32 - 1, 1) + b"\x00" * 9)
        assert run_cli(
            "certify", "--output-dir", tmp_path / "cert", "--w", "0,1,0",
            "--dataset", path,
        ) == cli.EXIT_USAGE
        assert str(path) in capsys.readouterr().err

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

    @pytest.mark.parametrize("body", ["", "# no rows\n"], ids=["empty", "comment"])
    def test_text_dataset_without_rows_prints_only_its_error(self, tmp_path, body):
        # A fresh interpreter: stderr as a user sees it, with no warning or
        # log line beside the error.
        path = tmp_path / "norows.txt"
        path.write_text("3 5 0\n" + body)
        result = subprocess.run(
            [sys.executable, "-m", "tsyblearn", "certify", "--w", "0,1,0",
             "--dataset", str(path), "--output-dir", str(tmp_path / "cert")],
            capture_output=True, text=True, env=src_env(), timeout=300,
        )
        assert result.returncode == cli.EXIT_USAGE
        assert result.stderr.splitlines() == [
            f"error: {path}: expected 5 rows of 4 columns, got (0, 4)"
        ]

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


def violate_at(dimensions):
    """``cli._run_learn_once``, with the row's stop reason set to
    ``ContractViolation`` at each of ``dimensions``."""
    real = cli._run_learn_once

    def run(cfg, inst, lcfg, repeat):
        row, model, trace = real(cfg, inst, lcfg, repeat)
        if cfg["instance"]["dimension"] in dimensions:
            row = dataclasses.replace(
                row, stop_reason=StopReason.CONTRACT_VIOLATION.value
            )
        return row, model, trace

    return run


class TestLearn:
    def test_a_contract_violation_row_exits_internal(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_run_learn_once", violate_at((3,)))
        assert run_cli(
            "learn", "--output-dir", tmp_path, "-d", 3, "--eta0", 0.1,
            "--epsilon", 0.2, "--samples-n", 2_000,
        ) == cli.EXIT_INTERNAL
        rows = read_rows(tmp_path / "metrics.csv")
        assert [r["stop_reason"] for r in rows] == ["ContractViolation"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_empty_round_batch_is_no_evidence(self, tmp_path, seed):
        # 300 oracle rows per round leave some rounds without a band row.
        assert run_cli(
            "learn", "--output-dir", tmp_path, "--family", "gaussian", "-d", 5,
            "--oracle", "WellBehavedRandomInit", "--oracle-samples", 300,
            "--start", "zero", "--epsilon", 0.15, "--seed", seed,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)

    @pytest.mark.parametrize(
        "noise",
        [
            ["--alpha", 0.999, "--noise", "constant_rate"],
            ["--alpha", 0.9995, "--noise", "margin_power_law"],
            ["--alpha", 0.9995, "--noise", "adversarialish"],
            ["--alpha", 1.0, "--noise", "constant_rate"],
        ],
        ids=["constant-rate", "margin-power-law", "adversarialish", "alpha-one"],
    )
    def test_alpha_whose_bigA_floor_overflows_exits_usage(
        self, tmp_path, capsys, noise
    ):
        # alpha/(1-alpha) of 999 or more makes the certified bigA floor,
        # (1/2 - eta0)**-kappa or 2**kappa, overflow a float; at alpha = 1
        # it divides by zero.
        assert run_cli(
            "learn", "--output-dir", tmp_path, "--family", "gaussian", "-d", 3,
            *noise,
        ) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert "alpha" in err
        assert not (tmp_path / "metrics.csv").exists()

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

    def test_warm_start_oracle_runs_where_the_noise_margin_underflows(
        self, tmp_path
    ):
        assert run_cli(
            "learn", "--output-dir", tmp_path, "--family", "laplace",
            "--alpha", 0.01, "--oracle", "LogConcaveWarmStart", "--start", "e1",
            "--theta0", 0.8, "--max-rounds", 2,
        ) == cli.EXIT_OK

    @pytest.mark.parametrize(
        "key, good, bad",
        [("alpha", 0.5, 1e-308), ("big-a", 3.0, 1.7976931348623157e308)],
        ids=["tiny-alpha", "huge-bigA"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["learn", "-d", 3, "--oracle", "LogConcaveWarmStart"],
            ["certify", "--oracle", "LogConcaveWarmStart", "--w", "0,1,0"],
            ["warmstart", "-d", 3],
            ["sweep", "-d", 3, "--oracle", "LogConcaveWarmStart"],
        ],
        ids=["learn", "certify", "warmstart", "sweep"],
    )
    def test_warm_band_scale_that_underflows_exits_usage_before_compute(
        self, tmp_path, capsys, monkeypatch, argv, key, good, bad
    ):
        # The warm start's band scale s underflows to 0 at every guess.
        def no_compute(*args, **kwargs):
            raise AssertionError("compute ran")

        monkeypatch.setattr(cli, "learn", no_compute)
        monkeypatch.setattr(cli, "warm_start_batch", no_compute)
        monkeypatch.setattr(cli.LogConcaveWarmStartOracle, "query", no_compute)
        if argv[0] == "sweep":
            # Only the second grid point underflows; it stops the sweep.
            tail = [f"--sweep-{key}", f"{good},{bad}"]
        else:
            tail = [f"--{key}", bad]
        out = tmp_path / "out"
        code = run_cli(*argv, "--family", "laplace", *tail, "--output-dir", out)
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "band scale underflows" in err and "Traceback" not in err
        for name in ("alpha", "bigA", "epsilon"):
            assert f"{name}=" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tail", [["--alpha", 1e-308], ["--big-a", 1.7976931348623157e308]],
        ids=["tiny-alpha", "huge-bigA"],
    )
    def test_random_init_runs_where_the_warm_band_scale_underflows(
        self, tmp_path, tail
    ):
        assert run_cli(
            "learn", "--output-dir", tmp_path, "-d", 3, "--family", "laplace",
            "--oracle", "WellBehavedRandomInit", "--max-rounds", 2,
            "--samples-n", 20_000, "--oracle-samples", 5_000, *tail,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)
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

    @pytest.mark.parametrize("command", ["learn", "sweep"])
    def test_the_removed_rho_eps_exits_usage(self, tmp_path, capsys, command):
        # The learner's certificate-magnitude floor is gone: its flag and its
        # config key are usage errors that name them, before any output.
        assert run_cli(
            command, "--rho-eps", 0.5, "--output-dir", tmp_path / "flag"
        ) == cli.EXIT_USAGE
        assert "--rho-eps" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"learner": {"rho_eps": 0.5}}))
        assert run_cli(
            command, "--config", cfg_path, "--output-dir", tmp_path / "key"
        ) == cli.EXIT_USAGE
        assert "learner.rho_eps" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()
        assert not (tmp_path / "key").exists()

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

    def test_noise_margin_that_underflows_runs(self, tmp_path, monkeypatch):
        # At alpha = 0.01 the band noise margin underflows to 0.0, so the tilt
        # fit targets the 1e-3 gamma floor.  These labels clear no noise
        # floor: the run records EmptySubspace.
        gammas = []
        fit = warmstart.psgd_stationary_point

        def recording_fit(samples, gamma, **kwargs):
            gammas.append(gamma)
            return fit(samples, gamma, **kwargs)

        monkeypatch.setattr(warmstart, "psgd_stationary_point", recording_fit)
        code = run_cli(
            "warmstart", "--output-dir", tmp_path, "--family", "laplace",
            "--alpha", 0.01, "--epsilon", 1.0, "--theta0", 0.8,
        )
        assert code == cli.EXIT_OK
        (run,) = json.loads((tmp_path / "warmstart.json").read_text())["runs"]
        assert run["error"].startswith("EmptySubspace: no direction passed")
        assert gammas == [1e-3]

    @pytest.mark.parametrize("w", ["0,0,0", "1,0", "1,0,0,0"])
    def test_bad_w_exits_usage(self, tmp_path, w):
        assert run_cli(
            "warmstart", "--output-dir", tmp_path, "-d", 3, "--w", w,
        ) == cli.EXIT_USAGE
        assert not (tmp_path / "warmstart.json").exists()

    def test_default_w_parallel_to_target_has_no_correlation(self, tmp_path):
        # The default w (e1) is the default target: no label signal lies off
        # w, so no direction clears the noise floor in either run.
        code = run_cli(
            "warmstart", "--output-dir", tmp_path, "--repeats", 2,
        )
        assert code == cli.EXIT_OK
        payload = json.loads((tmp_path / "warmstart.json").read_text())
        assert [run["repeat"] for run in payload["runs"]] == [0, 1]
        assert all(
            run["error"].startswith("EmptySubspace: no direction passed")
            for run in payload["runs"]
        )
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
        # Read before any output: the run leaves no directory behind.
        monkeypatch.setenv("TSYBLEARN_WORKERS", "many")
        assert run_cli(
            "sweep", "--output-dir", tmp_path / "out", "--sweep-n", "1000",
        ) == cli.EXIT_USAGE
        assert not (tmp_path / "out").exists()

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

        def flaky(cfg, inst, lcfg, repeat):
            if cfg["instance"]["dimension"] == 4:
                raise ValueError("stray")
            return real(cfg, inst, lcfg, repeat)

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

    @pytest.mark.parametrize(
        "violating, expect", [((4,), cli.EXIT_OK), ((3, 4), cli.EXIT_INTERNAL)]
    )
    def test_a_contract_violation_row_is_not_ok(
        self, tmp_path, monkeypatch, capsys, violating, expect
    ):
        # learn's rule: a ContractViolation row is written but is not ok, so
        # the sweep exits 0 with one ok row, and 4 with none.
        monkeypatch.setenv("TSYBLEARN_WORKERS", "1")
        monkeypatch.setattr(cli, "_run_learn_once", violate_at(violating))
        code = run_cli(
            "sweep", "--output-dir", tmp_path, "--eta0", 0.1, "--epsilon", 0.2,
            "--start", "zero", "--samples-n", 2_000, "--sweep-d", "3,4",
            "--seed", 0,
        )
        assert code == expect
        rows = read_rows(tmp_path / "metrics.csv")
        assert [r["dimension"] for r in rows] == ["3", "4"]
        assert [r["stop_reason"] == "ContractViolation" for r in rows] == [
            d in violating for d in (3, 4)
        ]
        assert f"({2 - len(violating)}/2 rows ok)" in capsys.readouterr().out

    def test_default_workers_are_the_cpus_this_process_may_use(self, monkeypatch):
        # Pinned to one CPU of a four-CPU machine, the sweep runs one worker.
        monkeypatch.delenv("TSYBLEARN_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._workers_from_env(8) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3}, raising=False)
        assert cli._workers_from_env(8) == 3
        # Without an affinity call, the machine's count.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._workers_from_env(8) == 4

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

    def test_calls_in_one_process_share_no_value(self, tmp_path):
        # The parser is built once per process; a flag of one call must not
        # reach the next, which runs another subcommand with other flags.
        assert cli.build_parser() is cli.build_parser()
        assert run_cli(
            "certify", "--output-dir", tmp_path / "certify", "--seed", 9,
            "--epsilon", 0.5, "--w", "0,1,0,0,0", "--oracle-samples", 2000,
        ) == cli.EXIT_FAIL
        assert run_cli(
            "learn", "--output-dir", tmp_path / "learn", "--max-rounds", 2,
            "--samples-n", 2000, "--oracle-samples", 2000,
        ) == cli.EXIT_OK
        first, second = (
            json.loads((tmp_path / sub / "effective_config.json").read_text())
            for sub in ("certify", "learn")
        )
        assert (first["instance"]["seed"], first["learner"]["epsilon"]) == (9, 0.5)
        assert first["w"] is not None
        assert (second["instance"]["seed"], second["learner"]["epsilon"]) == (0, 0.15)
        assert second["w"] is None
        assert (second["learner"]["max_rounds"], second["oracle_samples"]) == (2, 2000)

    def test_verbosity_is_set_on_every_call(self, tmp_path):
        # Each call in one process sets the package logger's level from its
        # own -v count, not only the first call.
        package = logging.getLogger("tsyblearn")
        saved = package.level
        levels = []
        try:
            for i, flags in enumerate([[], ["-vv"], []]):
                assert run_cli(
                    "generate", "--output-dir", tmp_path / str(i), "--n", 10,
                    *flags,
                ) == cli.EXIT_OK
                levels.append(package.getEffectiveLevel())
        finally:
            package.setLevel(saved)
        assert levels == [logging.WARNING, logging.DEBUG, logging.WARNING]

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
            "--epsilon", "--delta", "--max-rounds",
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


def loaded_after(module: str, code: str, cwd) -> bool:
    """Whether ``module`` is imported once ``code`` has run in a fresh
    interpreter (this one may have imported it already)."""
    script = code + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=cwd,
        env=src_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


class TestColdImport:
    """``scipy.special`` is imported by the code that calls it, and only
    there: the ball constants, spherical sector noise, and a Gaussian band
    draw with an edge outside ``(-1, 1)``, which no CLI run draws.  So is
    ``concurrent.futures``, by a dataset's band pass."""

    def test_import_leaves_it_out(self, tmp_path):
        assert not loaded_after("scipy.special", "import tsyblearn.cli", tmp_path)

    def test_import_leaves_out_the_thread_pool(self, tmp_path):
        assert not loaded_after("concurrent.futures", "import tsyblearn.cli", tmp_path)

    def test_dataset_and_laplace_runs_leave_it_out(self, tmp_path):
        argvs = [
            ["generate", "--output-dir", "gen", "-d", "3", "--n", "20000",
             "--format", "binary", "--seed", "4"],
            ["certify", "--dataset", "gen/dataset.bin", "--w", "0,1,0",
             "--epsilon", "0.3", "--oracle-samples", "5000", "--output-dir",
             "certify"],
            # From zero, the second round's query runs warm starts.
            ["learn", "--output-dir", "learn", "-d", "3", "--family", "laplace",
             "--noise", "margin_power_law", "--oracle", "LogConcaveWarmStart",
             "--start", "zero", "--max-rounds", "2", "--oracle-samples",
             "20000", "--eval-n", "1000"],
        ]
        code = (
            "from tsyblearn import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FAIL), argv\n"
        )
        assert not loaded_after("scipy.special", code, tmp_path)

    def test_gaussian_runs_leave_it_out(self, tmp_path):
        argvs = [
            ["learn", "--output-dir", "learn", "-d", "3", "--max-rounds", "2",
             "--oracle-samples", "20000", "--eval-n", "1000"],
            ["learn", "--output-dir", "warm", "-d", "3", "--oracle",
             "LogConcaveWarmStart", "--max-rounds", "2", "--oracle-samples",
             "20000", "--eval-n", "1000"],
            ["certify", "--output-dir", "certify", "--w", "0,1,0",
             "--epsilon", "0.3", "--oracle-samples", "20000"],
        ]
        code = (
            "from tsyblearn import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_FAIL), argv\n"
        )
        assert not loaded_after("scipy.special", code, tmp_path)

    @pytest.mark.parametrize("lo, hi", [(0.5, 1.0), (-1.5, 0.3)])
    def test_gaussian_band_beyond_one_loads_it(self, tmp_path, lo, hi):
        code = (
            "import numpy as np\n"
            "from tsyblearn.synthetic import Family, InstanceSpec, "
            "MarginalSpec, SampleStream, constant_rate\n"
            "spec = InstanceSpec(MarginalSpec(Family.STANDARD_GAUSSIAN, 3), "
            "np.array([1.0, 0.0, 0.0]), constant_rate(0.5, 0.1), 1)\n"
            "SampleStream(spec).next_band(100, np.array([0.0, 1.0, 0.0]), "
            f"{lo}, {hi})\n"
        )
        assert loaded_after("scipy.special", code, tmp_path)


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
            ({"instance": {"seed": -1}}, "instance.seed"),
            ({"learner": {"delta": 1}}, "learner.delta"),
        ],
        ids=[
            "nested_unknown", "group_not_object", "int_as_string",
            "int_as_float", "null_not_nullable", "float_as_string", "nan",
            "int_beyond_float",
            "count_as_string", "count_as_bool", "choice", "vector_item",
            "vector_type", "grid_float_for_int", "grid_not_list",
            "grid_not_object", "grid_angle_beyond_pi", "negative_seed",
            "delta_at_one",
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
            # A margin-power-law big_a below 2**(alpha/(1-alpha)) cannot
            # bound the tail at t = 1/2, where eta >= 0 is certain.
            ["certify", "--noise", "margin_power_law", "--big-a", "0.5",
             "--theta0", "1.2", "--w", "1,0,0,0,0"],
            ["sweep", "--noise", "margin_power_law", "--alpha", "0.5",
             "--sweep-big-a", "2.0,0.5"],
        ],
        ids=lambda argv: "_".join(a.strip("-") for a in argv),
    )
    def test_bad_flag_value_exits_usage_before_compute(
        self, tmp_path, capsys, argv
    ):
        assert run_cli(*argv, "--output-dir", tmp_path / "out") == cli.EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            # A negative seed used to reach np.random.default_rng and exit 4
            # (generate ran, and exited 0).
            (["generate", "--seed", "-1"], "instance.seed"),
            (["certify", "--w", "0,1,0", "--seed", "-100000",
              "--oracle-samples", "2000"], "instance.seed"),
            (["learn", "--start", "random", "--seed", "-5"], "instance.seed"),
            (["warmstart", "--seed", "-3", "--warm-samples", "1000"],
             "instance.seed"),
            (["sweep", "--sweep-d", "3", "--seed", "-1"], "instance.seed"),
            # certify used to run the whole search at these and exit 3.
            (["certify", "--w", "0,1,0", "--delta", "0"], "learner.delta"),
            (["certify", "--w", "0,1,0", "--delta", "5"], "learner.delta"),
            (["certify", "--w", "0,1,0", "--delta", "-1"], "learner.delta"),
            (["learn", "--delta", "1"], "learner.delta"),
            (["sweep", "--sweep-d", "3", "--delta", "0"], "learner.delta"),
        ],
        ids=lambda v: "_".join(a.strip("-") for a in v) if isinstance(v, list) else v,
    )
    def test_seed_and_delta_out_of_range_exit_usage(self, tmp_path, capsys, argv, key):
        assert run_cli(*argv, "--output-dir", tmp_path / "out") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta", ["1e-9", "0.999"])
    def test_delta_inside_the_interval_is_accepted(self, tmp_path, delta):
        assert run_cli(
            "certify", "--w", "0,1,0", "--delta", delta, "--seed", "0",
            "--oracle-samples", "2000", "--output-dir", tmp_path,
        ) in (cli.EXIT_OK, cli.EXIT_FAIL)

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


class TestDirectionRule:
    """``certify --w``, ``--target`` and ``warmstart --w`` take a direction
    under one rule: a norm within ``UNIT_TOL`` of 1 keeps the given bits, and
    any other is divided by the norm, with one warning."""

    #: Command -> (argv before the vector, output file, key path to the
    #: vector the run used).
    CASES = {
        "certify": (["certify", "--samples-n", 2_000, "--w"], "witness.json",
                    ("queried_w",)),
        "target": (["generate", "-d", 3, "--n", 10, "--target"],
                   "effective_config.json", ("resolved", "target")),
        "warmstart": (["warmstart", "-d", 3, "--warm-samples", 1_000, "--w"],
                      "warmstart.json", ("w",)),
    }

    @pytest.mark.parametrize("command", list(CASES))
    @pytest.mark.parametrize(
        "given, expect, warned",
        [("0.28,0.96,0", [0.28, 0.96, 0.0], 0), ("3,4,0", [0.6, 0.8, 0.0], 1)],
        ids=["near_unit", "norm_5"],
    )
    def test_one_rule(self, tmp_path, caplog, command, given, expect, warned):
        argv, name, keys = self.CASES[command]
        with caplog.at_level(logging.WARNING, logger="tsyblearn.cli"):
            code = run_cli(*argv, given, "--output-dir", tmp_path)
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL)
        value = json.loads((tmp_path / name).read_text())
        for key in keys:
            value = value[key]
        assert value == expect
        assert [
            r.getMessage() for r in caplog.records if "non-unit" in r.getMessage()
        ] == [f"normalizing non-unit {command if command == 'target' else 'w'} "
              "(norm 5)"] * warned

    @pytest.mark.parametrize(
        "argv, warned",
        [
            (["learn", "--repeats", 3, "--samples-n", 2_000,
              "--max-rounds", 2], 1),
            (["warmstart", "--repeats", 3, "--warm-samples", 1_000], 1),
            (["sweep", "--repeats", 2, "--samples-n", 2_000, "--max-rounds", 2,
              "--sweep-n", "2000,3000"], 2),
        ],
        ids=["learn", "warmstart", "sweep"],
    )
    def test_repeats_warn_once_per_run_configuration(
        self, tmp_path, caplog, monkeypatch, argv, warned
    ):
        # Each run (each sweep point) is built once and its repeats take
        # seeded copies, so a non-unit target warns once per build.
        monkeypatch.setenv("TSYBLEARN_WORKERS", "1")
        with caplog.at_level(logging.WARNING, logger="tsyblearn.cli"):
            code = run_cli(*argv, "-d", 3, "--target", "0,2,0",
                           "--output-dir", tmp_path)
        assert code == cli.EXIT_OK
        assert [
            r.getMessage() for r in caplog.records if "non-unit" in r.getMessage()
        ] == ["normalizing non-unit target (norm 2)"] * warned
