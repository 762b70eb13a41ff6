"""The batch driver: output contents, exit codes, determinism."""

import json
import time

import pytest

from iwasawa_kernel.cli import main

EXAMPLE2 = """\
p 3
dim 6
prec 6
bracket 1 4 2 3
bracket 1 5 3 3
bracket 2 6 3 3
bracket 4 6 5 3
"""

HEIS_ID = """\
p 3
chart heisenberg
aut 1 1 0 0
aut 2 0 1 0
aut 3 0 0 1
"""

HEIS_CONJ = """\
p 3
chart heisenberg
aut 1 1 0 0
aut 2 0 1 1
aut 3 0 0 1
"""

HEIS_SWAP = """\
p 3
chart heisenberg
aut 1 0 1 0
aut 2 1 0 0
aut 3 0 0 -1
"""

CENTRAL_IDEAL = """\
p 3
chart heisenberg
ideal bmono 0 0 1
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestUcs:
    def test_example_output(self, tmp_path, capsys):
        code = main(["ucs", write(tmp_path, "e2.txt", EXAMPLE2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Z_2 = span{x2, x3, x5}" in out
        assert "C(Z_2) = span{x2, x3, x4, x5}" in out
        assert "nilpotency class = 3" in out

    def test_invalid_presentation_exits_1(self, tmp_path, capsys):
        bad = "p 3\ndim 2\nprec 4\nbracket 1 2 1 1\n"
        code = main(["ucs", write(tmp_path, "bad.txt", bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "lattice" in err or "nilpotent" in err

    def test_missing_file_exits_1(self, capsys):
        assert main(["ucs", "/nonexistent/input.txt"]) == 1

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        assert main(["ucs", write(tmp_path, "k.txt", "p 3\nfrobnicate 1\n")]) == 1


class TestMahler:
    def test_identity_single_coefficient(self, tmp_path, capsys):
        path = write(tmp_path, "id.txt", HEIS_ID)
        code = main(["mahler", path, "--level", "1", "--degree", "3",
                     "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert list(doc["coefficients"]) == ["0,0,0"]
        assert doc["by_formula"] and doc["by_commutation"]

    def test_non_mahler_flags_false_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "swap.txt", HEIS_SWAP)
        code = main(["mahler", path, "--level", "2", "--degree", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "by_formula=False by_commutation=False" in out
        assert "witness" in out

    def test_non_homomorphism_exits_1(self, tmp_path, capsys):
        # fixing g1, g2 but moving the commutator g3 is inconsistent
        broken = HEIS_ID.replace("aut 3 0 0 1", "aut 3 1 0 1")
        assert main(["mahler", write(tmp_path, "b.txt", broken),
                     "--level", "2"]) == 1

    def test_non_bijective_spec_exits_1(self, tmp_path, capsys):
        # every generator sent to 1: a homomorphism, but not onto
        trivial = "p 3\nchart heisenberg\naut 1 0 0 0\naut 2 0 0 0\naut 3 0 0 0\n"
        assert main(["mahler", write(tmp_path, "t.txt", trivial), "--level", "2"]) == 1
        assert "not a homomorphism" in capsys.readouterr().err

    def test_aut_index_outside_chart_exits_1(self, tmp_path, capsys):
        text = HEIS_ID + "aut 7 1 0 0\n"
        assert main(["mahler", write(tmp_path, "i.txt", text), "--level", "1"]) == 1
        assert "aut index 7 outside 1..3" in capsys.readouterr().err

    def test_level2_degree6_runtime(self, tmp_path, capsys):
        # one Mahler table per command and batched chart solves; with a
        # table per factorization check and one chart solve per element
        # this took 2 to 4.6 s on a shared 2-vCPU machine
        path = write(tmp_path, "swap.txt", HEIS_SWAP)
        t0 = time.monotonic()
        assert main(["mahler", path, "--level", "2", "--degree", "6"]) == 0
        assert time.monotonic() - t0 < 1.5


class TestControl:
    def test_central_ideal_report(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        code = main(["control", path, "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["controller_estimate"] == [1, 1, 0]
        assert doc["faithful"] is False
        assert all(
            cell["definitional"] == cell["by_action"]
            for cell in doc["lattice"].values()
        )

    def test_budget_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        assert main(["control", path, "--level", "4"]) == 2


class TestGrowth:
    def test_char0_affine_fit(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", HEIS_CONJ)
        code = main(["growth", path, "--level", "4", "--coeff-prec", "6",
                     "--m-max", "2", "--regime", "char0",
                     "--size-budget", "10000000", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        fit = doc["fits"]["2"]
        assert fit["law"] == "affine" and fit["lambda"] == 2 and fit["fit_exact"]
        assert [c["value"] for c in doc["table"]["2"]] == [2, 3, 4]

    def test_charp_geometric_fit(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", HEIS_CONJ)
        code = main(["growth", path, "--level", "2", "--m-max", "1",
                     "--regime", "charp", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        fit = doc["fits"]["2"]
        assert fit["law"] == "p-power" and fit["lambda"] == 2 and fit["fit_exact"]
        assert [c["value"] for c in doc["table"]["2"]] == [2, 6]

    def test_identity_all_indeterminate(self, tmp_path, capsys):
        path = write(tmp_path, "id.txt", HEIS_ID)
        code = main(["growth", path, "--level", "2", "--coeff-prec", "3",
                     "--m-max", "1", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        for axis in doc["fits"].values():
            assert axis["law"] == "indeterminate"
        for cells in doc["table"].values():
            assert all(c["status"] == ">= floor" for c in cells)


class TestDeterminism:
    def test_structured_reports_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        args = ["control", path, "--format", "structured", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # well-formed single document
