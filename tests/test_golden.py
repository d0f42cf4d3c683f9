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
    "audit_lagrangian_f_printed_summary.txt": "0b36313c61a44349c9d1f9a3ccf583fdb818b1ef0d28bc0e548b4eba10ce0857",
    "audit_lagrangian_f_printed_trajectory.csv": "1a2db152429bdbe4687017f3c6dfe21f2b11ff0832977415ce525df2a49034d9",
    "circle_lagrangian_f_summary.txt": "73f1a8079307043c36a7be83c54cf05a5f60f63f7cdd945a7c6d7beefe39ad2d",
    "circle_lagrangian_f_trajectory.csv": "5fc97622a660843b010f8ede7128301f55ebdd51a863a3848644b08570896831",
    "falling_particle_g_summary.txt": "59da89ea2462d41e1d0ff6c4f46354147c510c6b3773bf74b38dcdcefe34714c",
    "falling_particle_g_trajectory.csv": "fc11f1357ff027fd8cdddac042606ef8379953c579d2de7824bddc98960606f0",
    "harmonic_oscillator_fstar_summary.txt": "74297cfdcce1820104c25c8ce891fa669b4952dbfc35b7c8b6d683acc93e978f",
    "harmonic_oscillator_fstar_trajectory.csv": "e92486d3c9a8d2e43230ea42aadcc2f7c883aef76bd6fec1fcb7c11a0f4c9d46",
    "harmonic_oscillator_gstar_summary.txt": "25d238b8bfc754d3d80efebc3ae3d47ba8d5edfc5794c328eb88efdf3b174114",
    "harmonic_oscillator_gstar_trajectory.csv": "80535c265a8162a445d1613b94c8e600da495b7b974fa2ddec018aaf7620b68f",
    "harmonic_oscillator_hstar_summary.txt": "45ccfcff65a7a537f6b0c257461ba25df6d1c4834833165d43777ef56a73f61c",
    "harmonic_oscillator_hstar_trajectory.csv": "9b2f2cde08a7f4a3f8075ab8f2933657dd8cd00b8a977d283ccb77de14696322",
    "quartic_hstar_summary.txt": "4b408364cec6b32af0952a9da47e9b89bf71ccc01e706843c22a20dd550c33cd",
    "quartic_hstar_trajectory.csv": "f26f1616d5732c7b9e198a2b0f4c08b19ebe2d5ab1e19e93b4f387852cd8e478",
}
RUN_STDOUT_DIGEST = "07fc059480690e8727b26ab839fa66738ac210cff50b164a436e082cb03e80f1"
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
