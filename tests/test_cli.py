"""The batch driver: output contents, exit codes, determinism."""

import json
import time

import pytest

from iwasawa_kernel import linalg, nilpotent
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

# Z_3 on one 2x2 matrix, x1 = 3 E12
ONE_DIM = """\
p 3
chartmat 0 3 0 0
aut 1 1
ideal bmono 1
"""

# 41^12 and 23^14 lie above 2^63, so these charts hold their matrices as
# Python ints
ABELIAN2_P41 = """\
p 41
chart abelian2
ideal bmono 1 0
"""

HEIS_P23 = """\
p 23
chart heisenberg
aut 1 1 0 -1
aut 2 0 1 0
aut 3 0 0 1
ideal bmono 0 0 1
"""

# the same generator b3 = g3 - 1 as a coefficient list: index 9 of the
# level-1 stage is g3
CENTRAL_IDEAL_COEFFS = """\
p 3
chart heisenberg
ideal coeffs -1 0 0 0 0 0 0 0 0 1
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

    def test_rational_constant_in_p_z_p(self, tmp_path, capsys):
        # v_3(3/2) = 1: the constant lies in 3·Z_(3)
        text = "p 3\ndim 3\nprec 4\nbracket 1 2 3 3/2\n"
        assert main(["ucs", write(tmp_path, "q.txt", text)]) == 0
        out = capsys.readouterr().out
        assert "Z_1 = span{x3}" in out
        assert "nilpotency class = 2" in out

    def test_series_computed_once(self, tmp_path, capsys, monkeypatch):
        # C(Z_2) reads the chain the command already holds
        calls = []
        real = nilpotent.upper_central_series
        monkeypatch.setattr(nilpotent, "upper_central_series",
                            lambda L: calls.append(L) or real(L))
        assert main(["ucs", write(tmp_path, "e2.txt", EXAMPLE2)]) == 0
        assert len(calls) == 1
        assert "C(Z_2) = span{x2, x3, x4, x5}" in capsys.readouterr().out


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

    @pytest.mark.parametrize("level, degree", [(2, 1), (1, 0)])
    def test_non_mahler_below_degree_2(self, tmp_path, capsys, level, degree):
        # shells 0 and 1 match the product formula for every automorphism;
        # the criterion reads shell 2 while the table stops at --degree
        path = write(tmp_path, "swap.txt", HEIS_SWAP)
        code = main(["mahler", path, "--level", str(level), "--degree", str(degree),
                     "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (doc["by_formula"], doc["by_commutation"]) == (False, False)
        assert len(doc["decay_log"]) == degree + 1
        assert all(sum(map(int, a.split(","))) <= degree for a in doc["coefficients"])
        path = write(tmp_path, "swap.txt", HEIS_SWAP)
        assert main(["mahler", path, "--level", str(level), "--degree", str(degree)]) == 0
        assert "mismatch witness: alpha = [0, 2, 0]" in capsys.readouterr().out

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

    def test_size_budget_admits_level4(self, tmp_path, capsys):
        # |Q| = 3^12 is above the default budget of 50 000; the flag lifts
        # it, and the stage runs without the dense index arrays
        path = write(tmp_path, "conj.txt", HEIS_CONJ)
        code = main(["mahler", path, "--level", "4", "--degree", "1",
                     "--size-budget", "10000000", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["by_formula"] is True and doc["by_commutation"] is True

    def test_large_prime_heisenberg(self, tmp_path, capsys):
        # the int64 coordinates of Q meet the chart's Python-int modulus
        path = write(tmp_path, "heis23.txt", HEIS_P23)
        code = main(["mahler", path, "--level", "1", "--degree", "2", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["by_formula"] is True and doc["by_commutation"] is True
        assert main(["growth", path, "--level", "1"]) == 0

    def test_prime_override(self, tmp_path, capsys):
        # --p replaces the file's p = 3: the stage is Heisenberg mod 5
        path = write(tmp_path, "conj.txt", HEIS_CONJ)
        code = main(["mahler", path, "--p", "5", "--level", "1", "--degree", "2",
                     "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["config"]["p"] == 5
        assert main(["mahler", path, "--p", "5", "--level", "1", "--degree", "2"]) == 0
        assert "|Q| = 125" in capsys.readouterr().out

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

    def test_coefficient_list_ideal_matches_b_monomial(self, tmp_path, capsys):
        reports = []
        for name, text in (("bmono.txt", CENTRAL_IDEAL), ("coeffs.txt", CENTRAL_IDEAL_COEFFS)):
            assert main(["control", write(tmp_path, name, text), "--format", "structured"]) == 0
            doc = json.loads(capsys.readouterr().out)
            del doc["config"]
            reports.append(doc)
        assert reports[0] == reports[1]
        assert reports[1]["rank_log"] == 36
        assert reports[1]["controller_estimate"] == [1, 1, 0]

    def test_large_prime_abelian(self, tmp_path, capsys):
        path = write(tmp_path, "abelian2.txt", ABELIAN2_P41)
        code = main(["control", path, "--level", "1", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        got = (doc["rank_log"], doc["controller_estimate"], doc["faithful"],
               doc["j_ideal_rank"], len(doc["lattice"]))
        assert got == (3280, [0, 1], False, 82, 4)

    def test_rank_log_computed_once(self, tmp_path, capsys, monkeypatch):
        # the ideal's rank_log is a field, set when its basis is built
        calls = []
        rank_log = linalg.rank_log
        monkeypatch.setattr(linalg, "rank_log", lambda *args: calls.append(args) or rank_log(*args))
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        assert main(["control", path, "--level", "2", "--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["rank_log"] == 1296
        assert len(calls) == 1

    def test_budget_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        assert main(["control", path, "--level", "4"]) == 2

    def test_modulus_beyond_int64_exits_2(self, tmp_path, capsys):
        # 3^21 > isqrt(2^63 - 1): residue products would wrap around in
        # int64 and give a wrong rank_log, so the Howell layer refuses
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        assert main(["control", path, "--coeff-prec", "21"]) == 2
        err = capsys.readouterr().err
        assert "budget/precision failure" in err
        assert "Traceback" not in err

    def test_level2_runtime(self, tmp_path, capsys):
        # live-entry Howell elimination; rewriting the whole remaining
        # matrix at every pivot took 8 to 13 s on a shared 2-vCPU machine
        path = write(tmp_path, "c.txt", CENTRAL_IDEAL)
        t0 = time.monotonic()
        assert main(["control", path, "--level", "2"]) == 0
        assert time.monotonic() - t0 < 6.0


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


    def test_negative_m_max_exits_1(self, tmp_path, capsys):
        path = write(tmp_path, "g.txt", HEIS_CONJ)
        assert main(["growth", path, "--m-max", "-1"]) == 1
        err = capsys.readouterr().err
        assert "validation failure: --m-max must be >= 0" in err


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


# (name, input text, or None for a missing file; arguments; exit code; a
# line of stderr)
# x2 = 2·x1: the chart basis is linearly dependent
DEPENDENT_CHART = """\
p 3
chartmat 0 3 0 0 0 0 0 0 0
chartmat 0 6 0 0 0 0 0 0 0
aut 1 1 0
aut 2 0 1
ideal bmono 0 1
"""

# g1 |-> exp(3 E13) = exp(x3 / 3): unipotent, but its log x3 / 3 lies
# outside the chart lattice
OFF_LATTICE_AUTMAT = """\
p 3
chart heisenberg
autmat 1 1 0 3 0 1 0 0 0 1
aut 2 0 1 0
aut 3 0 0 1
"""

FUZZ = [
    ("valid", CENTRAL_IDEAL, ["control"], 0, ""),
    ("negative-dim", "p 3\ndim -2\nprec 4\n", ["ucs"], 1, "dim must be >= 1"),
    # the dim³ bracket table needs 7.45 GiB at 8 bytes a slot, and the
    # annihilator's dim² conditions of length dim as much: refused before
    # the table is allocated
    ("ucs-dim-1000", "p 3\ndim 1000\nprec 4\nbracket 1 2 3 3\n", ["ucs"], 2,
     "the Lie bracket table at dim = 1000 needs 7.45 GiB, above the dense byte budget"),
    ("zero-dim", "p 3\ndim 0\nprec 4\n", ["ucs"], 1, "dim must be >= 1"),
    ("zero-prec", "p 3\ndim 2\nprec 0\n", ["ucs"], 1, "prec must be >= 1"),
    ("non-prime-p", "p 0\ndim 2\nprec 3\n", ["ucs"], 1, "p must be a prime"),
    ("non-prime-p-override", EXAMPLE2, ["ucs", "--p", "9"], 1, "p must be a prime, got 9"),
    ("unknown-chart", "p 3\nchart foo\nideal bmono 0 1\n", ["control"], 1,
     "unknown builtin chart 'foo'"),
    ("chart-size-not-a-number", "p 3\nchart abelianx\nideal bmono 0 1\n", ["control"], 1,
     "unknown builtin chart 'abelianx'"),
    ("missing-file", None, ["control"], 1, "No such file"),
    ("not-utf8", b"\xff\xfe p 3", ["ucs"], 1, "is not UTF-8 text"),
    ("aut-index-7", HEIS_ID + "aut 7 1 0 0\n", ["mahler"], 1, "aut index 7 outside 1..3"),
    ("non-bijective-aut", "p 3\nchart heisenberg\naut 1 0 0 0\naut 2 0 0 0\naut 3 0 0 0\n",
     ["mahler", "--level", "2"], 1, "not a homomorphism"),
    ("level-0", CENTRAL_IDEAL, ["control", "--level", "0"], 1, "must be >= 1"),
    ("negative-m-max", HEIS_CONJ, ["growth", "--m-max", "-1"], 1, "--m-max must be >= 0"),
    # phi^(3^40) takes ~64 squarings; the z-map approximant then leaves the
    # chart's precision
    ("growth-m-max-40", HEIS_CONJ, ["growth", "--m-max", "40"], 2,
     "target outside chart lattice"),
    ("negative-size-budget", HEIS_CONJ, ["growth", "--size-budget", "-1"], 1,
     "--size-budget must be >= 1"),
    ("zero-size-budget", HEIS_CONJ, ["growth", "--size-budget", "0"], 1,
     "--size-budget must be >= 1"),
    ("negative-degree", HEIS_ID, ["mahler", "--degree", "-1"], 1, "degree must be >= 0"),
    # the first differencing pass at degree 200 sends C(203, 3) triples to
    # C(204, 4), 6.84 GiB with the keys and weights of both and the index
    # arrays, and at degrees 140 and 160 it needs 1.68 and 2.84 GiB; at
    # degree 100000 the multi-indices alone would not fit.  All are refused
    # before the multi-indices are listed
    ("mahler-degree-200", HEIS_CONJ, ["mahler", "--degree", "200"], 2,
     "--degree 200: a Mahler differencing pass needs 6.84 GiB"),
    ("mahler-degree-140", HEIS_CONJ, ["mahler", "--degree", "140"], 2,
     "a Mahler differencing pass"),
    ("mahler-degree-160", HEIS_CONJ, ["mahler", "--degree", "160"], 2,
     "a Mahler differencing pass"),
    ("mahler-degree-100000", HEIS_CONJ, ["mahler", "--degree", "100000"], 2,
     "--degree 100000: a Mahler differencing pass"),
    # the char0 fit needs N > 1; charp fixes N = 1 by itself
    ("growth-char0-coeff-prec-1", HEIS_CONJ, ["growth", "--regime", "char0", "--coeff-prec", "1"],
     1, "char0 regime needs coefficient precision N > 1"),
    # the flags are checked before the file is read
    ("growth-char0-coeff-prec-1-missing-file", None,
     ["growth", "--regime", "char0", "--coeff-prec", "1"],
     1, "char0 regime needs coefficient precision N > 1"),
    ("coeff-prec-21", CENTRAL_IDEAL, ["control", "--coeff-prec", "21"], 2,
     "coefficient modulus 3^21"),
    # 3^40 > 2^63: the generators' coefficients would not fit in int64
    ("coeff-prec-40", CENTRAL_IDEAL, ["control", "--coeff-prec", "40"], 2,
     "coefficient modulus 3^40"),
    # |Q| = 19683: the translates are sparse rows of a few MB, but the
    # multiplication table would take 2.9 GiB, and the stage refuses
    # before allocating it
    ("control-level-3", CENTRAL_IDEAL, ["control", "--level", "3"], 2, "dense byte budget"),
    ("control-level-4", CENTRAL_IDEAL, ["control", "--level", "4"], 2, "exceeds budget"),
    # the flag admits |Q| = 3^12, but control needs a dense stage, whose
    # limit the flag does not move
    ("control-level-4-size-budget", CENTRAL_IDEAL,
     ["control", "--level", "4", "--size-budget", "10000000"], 2,
     "exceeds the fixed dense-stage limit of 50000 elements, which is separate from --size-budget"),
    ("dependent-chart-control", DEPENDENT_CHART, ["control"], 1, "linearly dependent"),
    ("dependent-chart-mahler", DEPENDENT_CHART, ["mahler"], 1, "linearly dependent"),
    ("dependent-chart-growth", DEPENDENT_CHART, ["growth", "--level", "1"], 1,
     "linearly dependent"),
    ("dependent-chart-growth-level-6", DEPENDENT_CHART,
     ["growth", "--level", "6", "--size-budget", "100000000"], 1, "linearly dependent"),
    # |Q| = 27 at level 1
    ("coeffs-longer-than-quotient", "p 3\nchart heisenberg\nideal coeffs " + "1 " * 28 + "\n",
     ["control"], 1, "coefficient list longer than the quotient"),
    ("coeffs-denominator-p", "p 3\nchart heisenberg\nideal coeffs 1/3\n", ["control"], 1,
     "has denominator divisible by p"),
    ("zero-chart-matrix", "p 3\nchartmat 0 0 0 0\naut 1 1\nideal bmono 1\n", ["control"], 1,
     "linearly dependent"),
    ("autmat-off-lattice-mahler", OFF_LATTICE_AUTMAT, ["mahler", "--level", "2"], 1,
     "autmat image of generator 1 is not in the chart group"),
    ("autmat-off-lattice-growth", OFF_LATTICE_AUTMAT, ["growth"], 1,
     "autmat image of generator 1 is not in the chart group"),
    # |Q| = 3^9 on a one-dimensional chart is inside the size budget and the
    # dense limit, but its generator columns would take 2.89 GiB; every
    # command refuses them before they are allocated
    ("one-dim-level-9-mahler", ONE_DIM, ["mahler", "--level", "9"], 2, "the generator columns"),
    ("one-dim-level-9-growth", ONE_DIM, ["growth", "--level", "9"], 2, "the generator columns"),
    ("one-dim-level-9-control", ONE_DIM, ["control", "--level", "9"], 2,
     "the generator columns"),
    # |Q| = 23^3: the generator columns take 6.7 MB, the table 1.10 GiB
    ("heis-p23-control", HEIS_P23, ["control", "--level", "1"], 2,
     "the multiplication table at |Q| = 12167"),
    # |Q| = 729 is one above the budget the flag sets
    ("control-size-budget-728", CENTRAL_IDEAL, ["control", "--level", "2", "--size-budget", "728"],
     2, "exceeds budget 728"),
]


@pytest.mark.parametrize(
    "text, args, code, message", [c[1:] for c in FUZZ], ids=[c[0] for c in FUZZ]
)
def test_malformed_and_oversized_inputs(tmp_path, capsys, text, args, code, message):
    """Every input ends in its exit code, never in a raised exception."""
    path = tmp_path / "input.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main([args[0], str(path), *args[1:]]) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_control_and_mahler_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma takes 10-14 ms and ~1.4 MB of RSS to import in a fresh
    # process, and on numpy 2.4 `np.unique` without flags imports it
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    bmono = write(tmp_path, "ab.txt", "p 3\nchart abelian2\nideal bmono 0 2\n")
    code = f"""
import contextlib, io, sys
from iwasawa_kernel.cli import main
runs = [
    ["control", {str(root / "inputs" / "heis_central_ideal.txt")!r}, "--level", "2"],
    ["control", {bmono!r}, "--level", "3"],
    ["mahler", {str(root / "inputs" / "heis_conj.txt")!r}, "--level", "2", "--degree", "3"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(run + ["--format", "structured"]) for run in runs]
print(codes, "numpy.ma" in sys.modules)
"""
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0] False"
