"""Run a fixed set of cheap CLI argvs, to compare two checkouts' outputs.

Usage::

    python3 tools/argv_set.py OUT [REPO]

Each argv runs in this process through ``tsyblearn.cli.main``, imported from
``REPO/src`` (default: the checkout holding this script), with a relative
``--output-dir`` under ``OUT``.  The argvs, including the two ``learn``
argvs of ``perfbench/workloads.py``, come from this script's checkout, so
both runs of a comparison use the same set.  ``OUT/runs.json`` records each
run's argv, exit code and standard output.  Each run has an expected exit
code, the one ``EXPECTED_EXIT`` gives it (3 for a Fail, 2 for a usage error)
or else 0, and the script exits 1 when any run exits otherwise.  Each run
treats a ``RuntimeWarning`` as an error, as the Tier-1 tests do, and a
``UserWarning`` too, so a numpy warning that leaks out of the library makes
its run exit 4.  The input files in ``FILES`` are written under ``OUT``
before the runs.  Wall-clock timings go only to ``meta.json``, so two
checkouts keep their primary outputs byte-identical exactly when

    diff -r -x meta.json OUT_A OUT_B

prints nothing.  To check an older commit, extract it (``git archive``) and
pass its root as ``REPO``.  The whole set takes a few seconds.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
import warnings
from pathlib import Path

#: The checkout holding this script; its benchmark defines the learn argvs.
HERE = Path(__file__).resolve().parents[1]

#: The benchmark seed the two learn workloads' ``--seed`` is derived from.
LEARN_SEED = 1

#: Each run's expected exit code when it is not 0: 3 (Fail) or 2 (usage).
EXPECTED_EXIT = {
    "certify-WellBehavedRandomInit-fail": 3,
    "certify-LogConcaveWarmStart-fail": 3,
    "certify-dataset-text": 3,
    "certify-dataset-whole-chunks": 3,
    "certify-dataset-empty-first-round": 3,
    "learn-alpha-overflow-constant_rate": 2,
    "learn-alpha-overflow-margin_power_law": 2,
    "certify-w-norm-overflow": 2,
    "generate-negative-seed": 2,
    "certify-negative-seed": 2,
    "learn-negative-seed": 2,
    "warmstart-negative-seed": 2,
    "certify-delta-zero": 2,
    "certify-delta-above-one": 2,
    "generate-sectors-above-cap": 2,
    "generate-sectors-on-constant-rate": 2,
    "learn-warm-band-scale-underflow": 2,
    "certify-dataset-no-rows": 2,
    "generate-out-escapes": 2,
}

#: Input files that some argvs read, by their path under ``OUT``.
FILES = {"no-rows.txt": "3 5 0\n"}  # a header of 5 rows and no rows


def argv_set() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` pairs; each ``name`` is also the run's output dir."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", HERE / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look themselves up
    spec.loader.exec_module(workloads)
    runs = []
    for name, flags in workloads.LEARN_FLAGS.items():
        seed = workloads.derive_seed(name, LEARN_SEED)
        runs.append((name, ["learn", *flags, "--seed", str(seed)]))
    # From zero the first query is already an honest Fail; from e1 every
    # round's query returns a witness, so the learner steps on certificates.
    for oracle, family in [
        ("WellBehavedRandomInit", "gaussian"),
        ("LogConcaveWarmStart", "laplace"),
    ]:
        runs.append((
            f"learn-e1-{oracle}",
            ["learn", "--family", family, "-d", "5", "--noise",
             "margin_power_law", "--oracle", oracle, "--start", "e1",
             "--theta0", "0.9", "--max-rounds", "4", "--oracle-samples",
             "100000", "--seed", "2"],
        ))
    gauss = ["--family", "gaussian", "--eta0", "0.2", "--seed", "3"]
    laplace = ["--family", "laplace", "--noise", "margin_power_law", "--seed", "3"]
    for oracle, flags in [
        ("WellBehavedRandomInit", gauss),
        ("LogConcaveWarmStart", laplace),
    ]:
        for outcome, w in [("witness", "0,1,0,0,0"), ("fail", "1,0,0,0,0")]:
            runs.append((
                f"certify-{oracle}-{outcome}",
                ["certify", "--oracle", oracle, *flags, "--w", w,
                 "--epsilon", "0.3", "--oracle-samples", "100000"],
            ))
    # The guesses share one 4000-row warm-start batch: two guesses' warm
    # starts fail on it (SourceExhausted) and the other two find no direction
    # above their noise floor (EmptySubspace), so no guess searches; the
    # random pair certifies (w is 1.2 rad from the target).  The ledger
    # charges the shared batch once.
    runs.append((
        "certify-warm-failed-guesses",
        ["certify", "--oracle", "LogConcaveWarmStart", "--family", "laplace",
         "--theta0", "1.2", "--w", "1,0,0", "--warm-samples", "4000",
         "--oracle-samples", "20000", "--noise", "margin_power_law"],
    ))
    runs += [
        ("generate-text", ["generate", "-d", "3", "--eta0", "0.1",
                           "--n", "20000", "--seed", "7"]),
        ("generate-binary", ["generate", "-d", "5", "--eta0", "0.2",
                             "--n", "200000", "--format", "binary",
                             "--seed", "11"]),
        # Exactly two read chunks, so the last chunk is a whole one (the
        # 200k-row file ends on a partial chunk).  Its certify runs out of
        # rows (exit 3).
        ("generate-binary-whole-chunks", ["generate", "-d", "4", "--eta0",
                                          "0.1", "--n", "16384", "--format",
                                          "binary", "--seed", "13"]),
        # The text file runs out during the search (exit 3); the binary
        # one gives a witness at 1.2 rad.
        ("certify-dataset-text", ["certify", "--dataset",
                                  "generate-text/dataset.txt", "--w", "0,1,0",
                                  "--epsilon", "0.3", "--oracle-samples", "5000"]),
        ("certify-dataset-binary", ["certify", "--dataset",
                                    "generate-binary/dataset.bin",
                                    "--w", "0.362,0.932,0,0,0",
                                    "--epsilon", "0.15",
                                    "--oracle-samples", "20000"]),
        ("certify-dataset-whole-chunks", [
            "certify", "--dataset", "generate-binary-whole-chunks/dataset.bin",
            "--w", "0.6,0.8,0,0", "--epsilon", "0.3", "--oracle-samples",
            "4000"]),
        # The text file's first 40 rows hold none of the band around e1,
        # which holds about 2.5% of its rows: the first round is the empty-band
        # Fail (exit 3), with band mass 0 and 40 rows drawn.
        ("certify-dataset-empty-first-round", [
            "certify", "--dataset", "generate-text/dataset.txt", "--w", "1,0,0",
            "--epsilon", "0.3", "--oracle-samples", "40"]),
    ]
    # Sector noise: exact Beta-law sector masses (gaussian) and Monte-Carlo
    # ones (laplace).  At alpha 0.001 the margin-power-law term overflows to
    # inf on rows far from the boundary, whose rate is 0.
    for family in ("laplace", "gaussian"):
        runs.append((
            f"generate-adversarialish-{family}",
            ["generate", "--family", family, "-d", "3", "--n", "2000",
             "--noise", "adversarialish", "--seed", "17"],
        ))
    runs.append((
        "generate-margin-power-law-small-alpha",
        ["generate", "-d", "3", "--n", "1000", "--noise", "margin_power_law",
         "--alpha", "0.001", "--seed", "17"],
    ))
    for family in ("gaussian", "logistic", "laplace", "uniform_ball"):
        runs.append((
            f"warmstart-{family}",
            ["warmstart", "--family", family, "-d", "4", "--theta0", "1.0",
             "--epsilon", "0.3", "--repeats", "2", "--seed", "5"],
        ))
    # w on the target: no label signal lies off w, so each repeat records
    # EmptySubspace (no direction above the noise floor).
    runs.append((
        "warmstart-no-evidence",
        ["warmstart", "--family", "laplace", "-d", "4", "--theta0", "0",
         "--epsilon", "0.3", "--repeats", "2", "--seed", "5"],
    ))
    runs.append(("sweep", ["sweep", "--sweep-d", "3,4", "--samples-n", "20000",
                           "--max-rounds", "3", "--epsilon", "0.3"]))
    # Repeat r runs a copy of the one built run (or sweep point) seeded with
    # seed + r; the non-unit target is normalized once, at the build.
    small = ["--samples-n", "20000", "--max-rounds", "3", "--epsilon", "0.3"]
    runs += [
        ("learn-target-non-unit-repeats", ["learn", "-d", "3", "--target",
                                           "0,2,0", "--repeats", "2", *small]),
        ("sweep-repeats", ["sweep", "--sweep-d", "3,4", "--repeats", "2",
                           *small]),
    ]
    # Usage errors: an alpha whose certified bigA floor overflows a float, and
    # a w whose norm does, each with finite inputs.
    for noise, alpha in [("constant_rate", "0.999"), ("margin_power_law", "0.9995")]:
        runs.append((
            f"learn-alpha-overflow-{noise}",
            ["learn", "--family", "gaussian", "-d", "3", "--alpha", alpha,
             "--noise", noise],
        ))
    runs.append(("certify-w-norm-overflow", ["certify", "--w", "1,1e308,1e308",
                                             "--target", "1,0,0"]))
    # Usage errors: a negative seed, and a delta outside (0, 1).
    runs += [
        ("generate-negative-seed", ["generate", "-d", "3", "--n", "100",
                                    "--seed", "-1"]),
        ("certify-negative-seed", ["certify", "--w", "0,1,0", "--seed",
                                   "-100000", "--oracle-samples", "2000"]),
        ("learn-negative-seed", ["learn", "--start", "random", "--seed", "-5",
                                 "--samples-n", "2000", "--max-rounds", "2"]),
        ("warmstart-negative-seed", ["warmstart", "--seed", "-3",
                                     "--warm-samples", "1000"]),
        ("certify-delta-zero", ["certify", "--w", "0,1,0", "--delta", "0",
                                "--oracle-samples", "2000"]),
        ("certify-delta-above-one", ["certify", "--w", "0,1,0", "--delta", "5",
                                     "--oracle-samples", "2000"]),
    ]
    # Usage errors: more sectors than the sector-noise cap, sectors off
    # their default under a profile that reads none, and an alpha at which
    # the warm start's band scale underflows to 0 at every guess.
    runs += [
        ("generate-sectors-above-cap", ["generate", "-d", "3", "--n", "10",
                                        "--noise", "adversarialish",
                                        "--sectors", "10001"]),
        ("generate-sectors-on-constant-rate", ["generate", "-d", "3", "--n",
                                               "10", "--sectors",
                                               "1000000000"]),
        ("learn-warm-band-scale-underflow", [
            "learn", "--oracle", "LogConcaveWarmStart", "--family", "laplace",
            "-d", "3", "--alpha", "1e-308", "--start", "e1", "--max-rounds", "2",
            "--samples-n", "20000"]),
    ]
    # Usage errors: a text dataset with a header and no rows, and an --out
    # with a directory part.  It names a file beside the run's directory, so
    # a checkout that lets it out still writes inside OUT.
    runs += [
        ("certify-dataset-no-rows", ["certify", "--dataset", "no-rows.txt",
                                     "--w", "0,1,0"]),
        ("generate-out-escapes", ["generate", "-d", "3", "--n", "10", "--out",
                                  "../generate-out-escapes.txt"]),
    ]
    # At alpha 1e-308 the margin-only step leaves an iterate near 1e-301,
    # whose norm underflows to 0; the learner still queries its direction.
    runs.append((
        "learn-iterate-norm-underflow",
        ["learn", "--family", "gaussian", "-d", "3", "--alpha", "1e-308",
         "--oracle", "WellBehavedRandomInit", "--max-rounds", "3",
         "--samples-n", "30000", "--oracle-samples", "5000", "--theta0", "1.0"],
    ))
    return runs


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    repo = Path(argv[1]).resolve() if len(argv) == 2 else HERE
    sys.path.insert(0, str(repo / "src"))
    from tsyblearn import cli

    os.environ["TSYBLEARN_WORKERS"] = "1"  # sweep rows in one process
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    for name, text in FILES.items():
        Path(name).write_text(text)
    record, unexpected = {}, []
    for name, run_argv in argv_set():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("error", UserWarning)
            code = cli.main([*run_argv, "--output-dir", name])
        record[name] = {"argv": run_argv, "exit": code, "stdout": stdout.getvalue()}
        expected = EXPECTED_EXIT.get(name, cli.EXIT_OK)
        if code != expected:
            unexpected.append(name)
        print(f"{name}: exit {code}" + ("" if code == expected else
                                        f" (expected {expected})"), flush=True)
    Path("runs.json").write_text(json.dumps(record, indent=2) + "\n")
    if unexpected:
        print(f"unexpected exit codes: {', '.join(unexpected)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
