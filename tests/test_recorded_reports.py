"""The benchmark operations against their recorded reports.

Each candidate operation of the control-729 and mahler-729 workloads runs
in-process, and its structured report must pass the benchmark's oracle:
the answers known without running the program, and the digest recorded
for it in ``perfbench/digests.json``.  The file is only read, so a rewrite
of the control or automorphism path that changes any byte of a report
fails here.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from iwasawa_kernel.cli import main  # noqa: E402

DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
OPS = [op for slot in workloads.slots("control-729", str(ROOT)) for op in slot]
MAHLER_OPS = [op for slot in workloads.slots("mahler-729", str(ROOT)) for op in slot]


def test_every_candidate_is_covered():
    assert len(OPS) == 8
    assert len(MAHLER_OPS) == 84
    assert all(op.key in DIGESTS for op in OPS + MAHLER_OPS)


def check(op, tmp_path, capsys):
    path = workloads.write_inputs([op], str(tmp_path))[op.key]
    assert main([op.command, path, *op.args, "--format", "structured"]) == 0
    assert oracle.problems(op, capsys.readouterr().out, DIGESTS) == []


@pytest.mark.parametrize("op", OPS, ids=[op.key for op in OPS])
def test_control_729_report_matches_record(op, tmp_path, capsys):
    check(op, tmp_path, capsys)


@pytest.mark.parametrize("op", MAHLER_OPS, ids=[op.key for op in MAHLER_OPS])
def test_mahler_729_report_matches_record(op, tmp_path, capsys):
    check(op, tmp_path, capsys)
