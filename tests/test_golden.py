"""Byte-level pins on the output contract.

``paramech run scenarios/*.scn`` writes 7 trajectory tables and 7 summaries
and prints one block per scenario; ``paramech verify --n 3`` and
``paramech verify --n 5`` print the audit report.  Their sha256 digests are
recorded below, with the output directory in the run's stdout replaced by
``OUTDIR``.

A change that alters any of these bytes must update the digest here and say
in CHANGES.md why the bytes changed and how many cells of which tables and
summaries changed.
"""

import hashlib
from pathlib import Path

from paramech.cli import main

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

OUTPUT_DIGESTS = {
    "audit_lagrangian_f_printed_summary.txt": "dc951e3961a71e4329239f5cd6753ca5ff1c5aae70e948e794e134436bf90d52",
    "audit_lagrangian_f_printed_trajectory.csv": "a1434af3ef349de7739e5578ef445802e4dbd34326c6fb18ff3b20e1e03e450a",
    "circle_lagrangian_f_summary.txt": "eee9b02e28fa663513ad61a827068b8b75eb3273723c2aa81e2da4ca4a84a357",
    "circle_lagrangian_f_trajectory.csv": "d56de49d0430b6e405d32f6287fae6b46da89fbbce97aa2b34712a40dc2a1978",
    "falling_particle_g_summary.txt": "81c20421dc41c6203ce798adbf34f7e6fdc6b695bdb1f98e3096043ebb9fb670",
    "falling_particle_g_trajectory.csv": "4cfc23a5c365c5e61a2fc880bd5e361754094d8a488a107eb693565b68f7fba8",
    "harmonic_oscillator_fstar_summary.txt": "6d002590acf0938a9945547b88d70d5b0c6bac0c3a5e32c6ecda824976d8c740",
    "harmonic_oscillator_fstar_trajectory.csv": "e5f5e06126b994bcfd3e4ee1dcbc84234d70d0fe3c117e0abfb8d63b3a247b8c",
    "harmonic_oscillator_gstar_summary.txt": "9933fb7f863566562ad0eb5082167057bc3390b38d2dcd65b6a131a6a3d22d65",
    "harmonic_oscillator_gstar_trajectory.csv": "d30b9f787b59b6517d027f8d1b3813d31cd1a2a1b7bbbf678b825f7227e126af",
    "harmonic_oscillator_hstar_summary.txt": "cb6489c3d19f0c2cf170222dc385e04f605564fe7e310c1d85057780d7a25981",
    "harmonic_oscillator_hstar_trajectory.csv": "3a8c5224d2e54b4fcce2b7861d654e57e5a7d11c0d9850709fb81f80b476cc3e",
    "quartic_hstar_summary.txt": "f77c7139eef2b46c45b00e79a2c22a24c91b4a7c86033eaf0e15786debb79e15",
    "quartic_hstar_trajectory.csv": "a8cfdf23c4e8dbc16826dc9bd0a60f38c8a417abc86434fd9d793beedf0870a7",
}
RUN_STDOUT_DIGEST = "f5a622cd3ecce9c45a988bbbaee634733fa216dc828ec5eddef682a9705a25e2"
VERIFY_3_DIGEST = "c2a0f0af8406177a8e4c2e2c624dfb5f6616b72cc280f7dc481aee46e7302dac"
VERIFY_5_DIGEST = "5a7b19da737974d63dc399448b318ee53dd1f1f1b805417cac274307c7ae7441"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sample_outputs_are_byte_identical(tmp_path, capsys):
    assert len(SCENARIOS) == 7
    assert main(["run", *map(str, SCENARIOS), "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "OUTDIR")
    written = {path.name: sha256(path.read_bytes()) for path in tmp_path.iterdir()}
    assert written == OUTPUT_DIGESTS
    assert sha256(stdout.encode()) == RUN_STDOUT_DIGEST


def test_verify_report_is_byte_identical(capsys):
    assert main(["verify", "--n", "3"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_3_DIGEST


def test_verify_n5_report_is_byte_identical(capsys):
    assert main(["verify", "--n", "5"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == VERIFY_5_DIGEST
