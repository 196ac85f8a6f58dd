"""Byte-for-byte comparison of CLI outputs with the files in ``golden/``.

The JSON files are the reports without their ``generated_at`` line, which
lies outside the deterministic payload; ``sweep`` writes a CSV alone.  A change that moves any digit of a
payload must regenerate them (run the argv below with ``--out`` in
``golden/``, drop the ``generated_at`` line) and say why the digits moved.
"""

import os

import pytest

from anisolap import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
RECT = '{"type":"rectangle","hw":1,"hh":2}'
DISK = '{"type":"disk","radius":1.5,"center":[0.5,-0.25]}'


def report_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return "".join(line for line in fh if not line.startswith('  "generated_at"'))


def file_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "name, argv, rc, files",
    [
        pytest.param(
            "eigen",
            ["--command", "eigen", "--domain", "lshape", "--p", "1.5", "--level", "3"],
            0,
            ["eigen_eigenfunction.csv"],
            id="eigen-lshape-p1.5-L3",
        ),
        pytest.param(
            "eigen_disk",
            ["--command", "eigen", "--domain", DISK, "--p", "3", "--level", "3"],
            0,
            ["eigen_disk_eigenfunction.csv"],
            id="eigen-disk-p3-L3",  # an off-centre disk refined onto its circle, p > 2
        ),
        pytest.param(
            "optimize",
            ["--command", "optimize", "--domain", RECT, "--a", "0.25", "--p", "2",
             "--grid-n", "17", "--level", "3"],
            0,
            ["optimize_profile.csv"],
            id="optimize-rect-p2-L3",
        ),
        pytest.param(
            "optimize_L4",
            ["--command", "optimize", "--domain", "lshape", "--a", "0.25", "--p", "2",
             "--grid-n", "17", "--level", "4"],
            0,
            ["optimize_L4_profile.csv"],
            id="optimize-lshape-p2-L4",  # two levels: an L3 profile, interior L4 brackets
        ),
        pytest.param(
            "optimize_L4_p3",
            ["--command", "optimize", "--domain", "lshape", "--a", "0.25", "--p", "3",
             "--grid-n", "9", "--level", "4"],
            0,
            ["optimize_L4_p3_profile.csv"],
            id="optimize-lshape-p3-L4",  # two levels at p > 2: both mirror minima refined
        ),
        pytest.param(
            "verify",
            ["--command", "verify", "--level", "2"],
            1,  # rectangle_axis_argmin_set FAILs
            [],
            id="verify-L2",
        ),
        pytest.param(
            "verify_L4_p3",
            ["--command", "verify", "--level", "4", "--p", "3", "--grid-n", "9", "--seed", "1"],
            1,  # rectangle_axis_argmin_set FAILs
            [],
            id="verify-L4-p3",  # two levels: every search on an L3 profile and L4 brackets
        ),
    ],
)
def test_output_matches_golden(tmp_path, name, argv, rc, files):
    assert cli.main([*argv, "--out", str(tmp_path / name)]) == rc
    got = report_text(str(tmp_path / f"{name}.json"))
    assert got == file_text(os.path.join(GOLDEN, f"{name}.json"))
    for fname in files:
        assert file_text(str(tmp_path / fname)) == file_text(os.path.join(GOLDEN, fname))


def test_sweep_matches_golden(tmp_path):
    argv = ["--command", "sweep", "--level", "3", "--grid-n", "9", "--a", "0.25", "--p", "2"]
    assert cli.main([*argv, "--out", str(tmp_path / "sweep")]) == 0
    assert file_text(str(tmp_path / "sweep.csv")) == file_text(os.path.join(GOLDEN, "sweep.csv"))
