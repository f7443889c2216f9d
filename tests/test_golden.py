"""Golden output digests for the CLI commands that produce the reported
numbers.

Each digest is the sha256 of an output file (or of the printed lines) of one
command.  A refactor that keeps them keeps every reported byte.  The bytes are
reproducible per numpy version (the normal sampler and PCG64 streams are
numpy's), so the digests are pinned for one version and skipped under others.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from guardian_sim import analysis
from guardian_sim.cli import SEED_ENV_VAR, main

PINNED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"golden digests are pinned for numpy {PINNED_NUMPY}, found {np.__version__}",
)

MATRIX = {
    ("position_breach", "report.json"): "0cc11c32b24a7be8d6aaafcc16278c3f35deee64145b6322757b4d2e1a18f1a3",
    ("position_breach", "winrates.csv"): "802060850cb082f4098c818d568ad4a8251460c4daadeecf7a682c765fe83de1",
    ("margin_breach", "report.json"): "52961b9ac73a2b5fb76a3aefb43b4da55f5e4f6c929fcdcd59b4473469ff34d9",
    ("margin_breach", "winrates.csv"): "2f8f8696b60bcaa815c8432bdc71cb3f6135c61f1611385ca48aef9b149d7809",
}

# `matrix --trials 1000 --seed 0 --jobs 2`: the headline run, over several
# trial blocks and, given two CPUs, the process pool.
HEADLINE = {
    "report.json": "18a416ea5997bdaf1a49e180522199a499bfeee9b90e0a4f32e9d64c3ff6e7a8",
    "winrates.csv": "f78e63e5d87e80ed4be13c7f2751d46c8ce9e2a0397a26495cdbc5c9c15a6b89",
}

# `matrix --trials 200` at other seeds and worlds: a base seed of two
# 32-bit words, a base seed of 2**128 (five words), and a capture radius at
# which 26 of the 200 trials redraw their first start pair.
OTHER_MATRIX = {
    ("--seed", "4294967296"): {
        "report.json": "ea595c6eb60119c68f24de9f8a1378e5ff2ebda33183fcc316124b6e587b4104",
        "winrates.csv": "c217bebe80e5fd7109081f834b53f55c7dc862e6fd7d3b1806fbb81cdd15cdea",
    },
    ("--seed", str(2**128)): {
        "report.json": "3d0bc7360f3893373d700828bf5e717d5fc7242f5b1682895bcede425826f6f9",
        "winrates.csv": "99a9de1f857e5ccf3138e4bb2c47593767c88a80c2d39e3625e075bd57f4ad44",
    },
    ("--seed", "0", "--tau", "40"): {
        "report.json": "e26f8966a9efc1dd3ba44f4781fa0615b8c96fe615c967f64640665895455188",
        "winrates.csv": "dce7861c950ba8ae4b570efa8b56224265b43e1c55cd126e9764c79c065ba820",
    },
}

# `run --seed 0` for every matrix pair.
RUNS = {
    ("pp", "linear", "trajectory.csv"): "9a3903cd63360f90cc883d2bddeef8cf2877d751051aef1dafcfb53870523f5f",
    ("pp", "linear", "summary.json"): "98cf55c8bf13ed00e921a26ff86d4bb6ab724841c277c616ef55151a2a75f6a6",
    ("pp", "spiral", "trajectory.csv"): "f97c01f2417204466bfe26c9f5f86e395f570da6d01c2b0d3b989681d091c0ca",
    ("pp", "spiral", "summary.json"): "46e5cc98369668d8158223840a079369f9e878bc602b6b88000d9816715f92cc",
    ("pp", "intelligent", "trajectory.csv"): "94f66138d49d64f0ae46fa84007529399ea2638e07d44c3036e1440a16042b7d",
    ("pp", "intelligent", "summary.json"): "8d038721a9864125b9cf77f6dca12ed3dc76a071cc78a174a0fad66bb98b2f8b",
    ("dm", "linear", "trajectory.csv"): "ddb7bb1197d369c81e4e76694ab396380d54bb5b008e4a375d1bdd2e75e3d634",
    ("dm", "linear", "summary.json"): "8d038721a9864125b9cf77f6dca12ed3dc76a071cc78a174a0fad66bb98b2f8b",
    ("dm", "spiral", "trajectory.csv"): "66dedfd00b88252a59f76cbda4922fb9fe83b4767bae91d1d8a4a78da6d8f75e",
    ("dm", "spiral", "summary.json"): "c2eced515ea47560b7c17e786c6ccc5ce6c52268f108a9d7525c29a196987d04",
    ("dm", "intelligent", "trajectory.csv"): "7733716e396e15795400cd4895f24ff945bfb0c5b160d85845e893466dee24f0",
    ("dm", "intelligent", "summary.json"): "46e5cc98369668d8158223840a079369f9e878bc602b6b88000d9816715f92cc",
    ("adm", "linear", "trajectory.csv"): "1b56eb1a25fef7369c07809d60c1f27de3aaf158820a6a856242796d9ad63043",
    ("adm", "linear", "summary.json"): "8d038721a9864125b9cf77f6dca12ed3dc76a071cc78a174a0fad66bb98b2f8b",
    ("adm", "spiral", "trajectory.csv"): "9ad43ce4f72ac4644ca482b707edeeecc87a5fb387e9e50590414789e3f6ab7a",
    ("adm", "spiral", "summary.json"): "3742c383f59373b6ac8fc8e6f7f7e6251449cda611677a2e412bf74c072b56b5",
    ("adm", "intelligent", "trajectory.csv"): "c0109198a13e68c39f2ccc62149a28bcc8fa08a28f911c8ba2b97e3d2563cd4b",
    ("adm", "intelligent", "summary.json"): "46e5cc98369668d8158223840a079369f9e878bc602b6b88000d9816715f92cc",
}

# `run` under the margin rule, whose termination test reads the margin every
# step; `run` with zero noise (reliability 1) against a static attacker,
# ending in a coincident capture whose terminal row has no margin; a 300-step
# survival, whose 600 observation normals span many draw windows; and two
# sampled starts that are redrawn: both points on the fourth attempt, and the
# attacker's beside a given defender start on the third; and the zero-noise
# run again with its noise term written -0, whose world equals the first but
# whose summary reads `"beta": -0.0`.
OTHER_RUNS = {
    ("--failure-criterion", "margin_breach", "--defender", "dm", "--attacker", "spiral",
     "--seed", "3"): {
        "trajectory.csv": "bdb71320bc36342446fbeca07571de1eda77bcc15e6d79281df9b4cdfe0dbcd0",
        "summary.json": "e67ced5896bec3de0f8beb7311018a3904ea4f4d7eaf5a2ebb1a4fb2f143208f",
    },
    ("--beta", "0", "--defender", "pp", "--attacker", "static", "--xa", "10", "0",
     "--xd", "8", "0", "--tau", "0.5"): {
        "trajectory.csv": "e76c826fc1f311241a209590ff6950ef5dcd39800f008c4691bf760bd0412768",
        "summary.json": "09c1a6bebf8583804c03a8bfab29c26f71b368d43649fdd00342a2769bae8caa",
    },
    ("--attacker", "static", "--defender", "adm", "--beta", "1", "--tau", "0.5", "--xa", "30",
     "0", "--xd", "0", "0", "--max-steps", "300", "--seed", "1"): {
        "trajectory.csv": "d7d473fb785c707291928d0a34a457f61767a36d89c4f140edd64207d694388a",
        "summary.json": "a7ded074ac3a999cb1f83307d8c4816c9c5e09441044e5858fb346208fc66755",
    },
    ("--seed", "16", "--tau", "40", "--defender", "dm", "--attacker", "spiral"): {
        "trajectory.csv": "ec1b40dddf094e8ce32a54be747feb03fece81af00de7bc6d520a367b04b7bd7",
        "summary.json": "7b14beb5fcbc6e6d72ac44a8335cf5dae17dcc58279ef884002bcf187a22dc72",
    },
    ("--seed", "52", "--xd", "15", "0", "--tau", "33", "--defender", "adm", "--attacker",
     "linear"): {
        "trajectory.csv": "590777e39155d4be1bbba47833f5d691edb94cb7680b359a51e09b32de23437e",
        "summary.json": "0feecdfd9286242f4ad24de6f1c15a8bc882d987323592c83008377348fa830c",
    },
    ("--beta", "-0", "--defender", "pp", "--attacker", "static", "--xa", "10", "0",
     "--xd", "8", "0", "--tau", "0.5"): {
        "trajectory.csv": "e76c826fc1f311241a209590ff6950ef5dcd39800f008c4691bf760bd0412768",
        "summary.json": "9173ed8113e2fe023b7ff672d4d9abd609b5fcc6509e363dd9b8bdb53d6b21ef",
    },
}

# A 20,000-step survival (about 2 MB of CSV), written under each `--format`.
LONG_RUN_FLAGS = ("--attacker", "static", "--defender", "adm", "--beta", "1", "--tau", "0.5",
                  "--seed", "1", "--max-steps", "20000")
LONG_RUN = {
    "trajectory.csv": "8166193589a1acdfc974ed0bf550a42df2fedbf8de43c18350e222808fb3253a",
    "summary.json": "4c4f86109100354fe9343eb3d48193716febda2a7f7bd4ecb033432c26d53b34",
}

# `run` from explicit start positions: the path that samples no positions.
EXPLICIT_RUN = {
    "trajectory.csv": "0f5bccf6e0d818e76449977c31b5060a29e74e8e24757d3a493f32f1a7ff9dd1",
    "summary.json": "674b31efcc6237584de24dc962a09b48226b5288ccec352b16914171c0fd0f4a",
}

# `check` at the default seed and at `--seed 3`.
CHECK_STDOUT = {
    (): "0db7c5a0fa820d9d1607eec56f01b3f195ade9e8de8b379713b90ea27a957cdb",
    ("--seed", "3"): "9404d75b42cd78c13091f8be9d351e8fa1cf159dcd9829f533dd7875fde3adc8",
}

# `stability --e 10 0 --ua 0 1 --seed 9`: the stability diagnostic line.
STABILITY_STDOUT = "a89bf4a40eb38be821d2849678460d718795f272526537be7e31299886e7f86c"

# `stability` at long but valid error vectors, below the length it refuses:
# with default noise, and noiseless just under sqrt(float max / 4).
LONG_ERROR_STABILITY_STDOUT = {
    ("--e", "1e150", "0", "--ua", "0", "1", "--seed", "9"):
        "d8eb2a872655952c7c223da19f17daf0b6fd234463f371894c55f93fe2df6d7d",
    ("--e", "6e153", "0", "--ua", "0", "1", "--beta", "0", "--seed", "9"):
        "9fa61f9e773f5ee865a42bd3e65ccb258f2e8336d3bb22ddf2c799b0132611f2",
}

# `margin-table --samples 10000 --seed 0`: the block estimator's bytes.
MARGIN_TABLE_STDOUT = "8edb982c5c8562e5887f95c14ce1571d23503f036461db235adc25c35d807810"

# `margin-table` at sample counts that end in a short block: one block and
# one sample, two blocks and one sample, and a third block of 952 samples.
RAGGED_MARGIN_TABLE_STDOUT = {
    ("--samples", "1025"): "4227cd84af36bd584aa42806fee2decf8f2d3f244ba0fcda343a7e0d8b54bddf",
    ("--samples", "2049", "--seed", "5"):
        "49def67d0449a1ef85eefe82cfc99b6c76a79cd24f46a3e256e1626cc723c0de",
    ("--samples", "3000", "--seed", "7", "--beta", "0.1"):
        "3d4816f16973556704becb0a7f1509589b4d5cc55e6e12aeedf8f8dd744507d4",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_matrix(tmp_path, criterion) -> None:
    argv = ["matrix", "--trials", "200", "--seed", "0", "--failure-criterion", criterion,
            "--out", str(tmp_path)]
    assert main(argv) == 0
    for name in ("report.json", "winrates.csv"):
        assert _sha((tmp_path / name).read_bytes()) == MATRIX[(criterion, name)], name


@pytest.mark.parametrize("criterion", ["position_breach", "margin_breach"])
def test_matrix_digests(tmp_path, criterion):
    _check_matrix(tmp_path, criterion)


@pytest.mark.parametrize(
    "window, block, criterion", [(3, 7, "margin_breach")], ids=["window-3-block-7"],
)
def test_matrix_digests_at_other_kernel_sizes(tmp_path, monkeypatch, window, block, criterion):
    """The bytes depend on neither the steps of normals drawn at once nor
    the trials stepped together."""
    monkeypatch.setattr(analysis, "MATRIX_WINDOW", window)
    monkeypatch.setattr(analysis, "MATRIX_BLOCK", block)
    _check_matrix(tmp_path, criterion)


def test_headline_matrix_digests(tmp_path):
    argv = ["matrix", "--trials", "1000", "--seed", "0", "--jobs", "2", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in HEADLINE.items():
        assert _sha((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("flags", list(OTHER_MATRIX), ids=["seed-2^32", "seed-2^128", "tau-40"])
def test_matrix_digests_at_other_seeds_and_worlds(tmp_path, flags):
    assert main(["matrix", "--trials", "200", *flags, "--out", str(tmp_path)]) == 0
    for name, digest in OTHER_MATRIX[flags].items():
        assert _sha((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("defender, attacker", sorted({key[:2] for key in RUNS}))
def test_run_digests(tmp_path, defender, attacker):
    argv = ["run", "--seed", "0", "--defender", defender, "--attacker", attacker,
            "--out", str(tmp_path)]
    assert main(argv) in (0, 1)
    for name in ("trajectory.csv", "summary.json"):
        assert _sha((tmp_path / name).read_bytes()) == RUNS[(defender, attacker, name)], name


@pytest.mark.parametrize("flags", list(OTHER_RUNS), ids=[
    "margin-rule", "zero-noise-coincident", "long-survival", "start-redrawn",
    "given-defender-redrawn", "negative-zero-noise"])
def test_other_run_digests(tmp_path, flags):
    assert main(["run", *flags, "--out", str(tmp_path)]) == 0
    for name, digest in OTHER_RUNS[flags].items():
        assert _sha((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("fmt, names", [
    ("both", ("trajectory.csv", "summary.json")), ("csv", ("trajectory.csv",)),
    ("json", ("summary.json",))], ids=["both", "csv", "json"])
def test_long_run_digests(tmp_path, fmt, names):
    assert main(["run", *LONG_RUN_FLAGS, "--format", fmt, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert _sha((tmp_path / name).read_bytes()) == LONG_RUN[name], name


def test_explicit_position_run_digests(tmp_path):
    argv = ["run", "--seed", "5", "--xa", "30", "0", "--xd", "0", "0", "--defender", "adm",
            "--attacker", "intelligent", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in EXPLICIT_RUN.items():
        assert _sha((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("flags", list(CHECK_STDOUT), ids=["default-seed", "seed-3"])
def test_check_stdout_digest(capsys, monkeypatch, flags):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(["check", *flags]) == 1  # margin_step_dominance fails by design
    assert _sha(capsys.readouterr().out.encode()) == CHECK_STDOUT[flags]


def test_stability_stdout_digest(capsys):
    argv = ["stability", "--e", "10", "0", "--ua", "0", "1", "--seed", "9"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == STABILITY_STDOUT


@pytest.mark.parametrize("flags", list(LONG_ERROR_STABILITY_STDOUT),
                         ids=["e-1e150", "e-6e153-noiseless"])
def test_stability_stdout_digest_at_long_error_vectors(capsys, flags):
    assert main(["stability", *flags]) == 0
    assert _sha(capsys.readouterr().out.encode()) == LONG_ERROR_STABILITY_STDOUT[flags]


def test_margin_table_stdout_digest(capsys):
    assert main(["margin-table", "--samples", "10000", "--seed", "0"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == MARGIN_TABLE_STDOUT


@pytest.mark.parametrize("flags", list(RAGGED_MARGIN_TABLE_STDOUT),
                         ids=["n-1025", "n-2049-seed-5", "n-3000-seed-7-beta-0.1"])
def test_margin_table_stdout_digest_at_ragged_sample_counts(capsys, flags):
    assert main(["margin-table", *flags]) == 0
    assert _sha(capsys.readouterr().out.encode()) == RAGGED_MARGIN_TABLE_STDOUT[flags]
