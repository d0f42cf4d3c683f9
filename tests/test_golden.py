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
    "audit_lagrangian_f_printed_summary.txt": "b6e637d332db558f3b2235299e1f74190bd7ea9d44861355767f271e8689e634",
    "audit_lagrangian_f_printed_trajectory.csv": "12aef74cfb5287be494968e4a0900e7adf47ba252be2c9fdf24e26d0ff63a020",
    "circle_lagrangian_f_summary.txt": "d6e787742e25bc8e6776f6373680d64a7a897589847710dda95c1d101d9930e6",
    "circle_lagrangian_f_trajectory.csv": "95a42339006ce5cce940f229d7bb5d7ee676687bab4dc980d3b430c688087e3b",
    "falling_particle_g_summary.txt": "59da89ea2462d41e1d0ff6c4f46354147c510c6b3773bf74b38dcdcefe34714c",
    "falling_particle_g_trajectory.csv": "fc11f1357ff027fd8cdddac042606ef8379953c579d2de7824bddc98960606f0",
    "harmonic_oscillator_fstar_summary.txt": "0e4610d58d94bf05689705d448422ac7a6c0b65a99698c0a82383ed6a681e2b7",
    "harmonic_oscillator_fstar_trajectory.csv": "4e79bd7006330f03d2af2e7ccbc2d35a1aa9d29710ae038da2c0ecdc410fb7c6",
    "harmonic_oscillator_gstar_summary.txt": "c55f9f7c899b4987cb709f6922ba6bf07264a799b06265d0d334b1b3b4c55f07",
    "harmonic_oscillator_gstar_trajectory.csv": "c0eca58465e8554e854c4c4ee463ead0dcb10da6144f4c20eb07f83b9ce403f3",
    "harmonic_oscillator_hstar_summary.txt": "23623ecfb279c2a69ffcca123bf02ad8eeaebfa9ffe7fac9b16c42b912df2bdf",
    "harmonic_oscillator_hstar_trajectory.csv": "52b6bdd99d4d2fe072eb2f93f10928ffb46c0ed68345354475b3add69a8fb134",
    "quartic_hstar_summary.txt": "4b408364cec6b32af0952a9da47e9b89bf71ccc01e706843c22a20dd550c33cd",
    "quartic_hstar_trajectory.csv": "f26f1616d5732c7b9e198a2b0f4c08b19ebe2d5ab1e19e93b4f387852cd8e478",
}
RUN_STDOUT_DIGEST = "269ae119aec70db47740bf16d045f3983300e0e82d21356d05e8e49ae76679d4"
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
