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
    "audit_lagrangian_f_printed_summary.txt": "36c5a85702c107b334226496bdac9a0c0eb0748329aa4adac4a1470c89b70417",
    "audit_lagrangian_f_printed_trajectory.csv": "7f7707b629d9bdf1a3cded1cd90bfcfa030ac15bbde7f3ce1fe3bc70cfe40fc4",
    "circle_lagrangian_f_summary.txt": "7fc5dadbe7990a83fed70ed07acbea59a41dd0c484577b017393d9a04ecc1980",
    "circle_lagrangian_f_trajectory.csv": "0835b07e2243059818b07bb90149b0004b4cc77c1b2146b25e407650aad471b6",
    "falling_particle_g_summary.txt": "59da89ea2462d41e1d0ff6c4f46354147c510c6b3773bf74b38dcdcefe34714c",
    "falling_particle_g_trajectory.csv": "fc11f1357ff027fd8cdddac042606ef8379953c579d2de7824bddc98960606f0",
    "harmonic_oscillator_fstar_summary.txt": "45f7d37b1bfd51f2cf800fda86a2c0b6414fcec9bc0177243eadf4eeab6c521d",
    "harmonic_oscillator_fstar_trajectory.csv": "b62f92e38b1bf97d6441f86a2eccc5dab16066ef050bdf918984b177a781cced",
    "harmonic_oscillator_gstar_summary.txt": "45b8c2c382fcc18f63287ac5ac89f243ff9209366d092c12075d1b36d54e5d59",
    "harmonic_oscillator_gstar_trajectory.csv": "d9e340d1436c751d7b7056d6beb84aef7839c38c03e1aaaf31d2ee298c26477b",
    "harmonic_oscillator_hstar_summary.txt": "20676b5fa6469f05c613c4e0175ea9c0fbb306b8acc458093ad899619b5f7ea3",
    "harmonic_oscillator_hstar_trajectory.csv": "6b5634014cd0346e74e01de46722a3e34962700cda24f652bd81c6ff0fba8c28",
    "quartic_hstar_summary.txt": "4b408364cec6b32af0952a9da47e9b89bf71ccc01e706843c22a20dd550c33cd",
    "quartic_hstar_trajectory.csv": "f26f1616d5732c7b9e198a2b0f4c08b19ebe2d5ab1e19e93b4f387852cd8e478",
}
RUN_STDOUT_DIGEST = "027d75ca724ab3f5373da3e7ad5ac9add7e98e8db066c8c17b9cc02305daa98d"
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
