"""Acceptance suite: the ten headline checks, one pass/fail line each.

Every check is exact (zero tolerance) unless a precision floor makes a
cell undecidable, in which case the cell must report the floor rather
than a value.  Runtime bounds are asserted where the check carries one.
"""

import json
import math
import random
import time

from iwasawa_kernel.algebra import (
    AlgebraElement,
    b_element,
    build_quotient,
    ideal_closure,
    lazard_value,
)
from iwasawa_kernel.charts import (
    abelian_chart,
    cyclic_chart,
    heisenberg_chart,
    unipotent_chart,
)
from iwasawa_kernel.cli import main
from iwasawa_kernel.control import control_lattice, controller_estimate
from iwasawa_kernel.mahler import (
    AutomorphismSpec,
    aut_mahler_coeffs,
    divided_power,
    is_mahler_aut,
    mahler_coeffs,
    reconstruct,
)
from iwasawa_kernel.padic import (
    PadicScalar,
    idempotent_power,
    legendre_factorial_val,
    vp,
    vp_binom_prime_power,
)

P = 3

EXAMPLE2 = """\
p 3
dim 6
prec 6
bracket 1 4 2 3
bracket 1 5 3 3
bracket 2 6 3 3
bracket 4 6 5 3
"""

HEIS_CONJ = """\
p 3
chart heisenberg
aut 1 1 0 0
aut 2 0 1 1
aut 3 0 0 1
"""

CENTRAL_IDEAL = """\
p 3
chart heisenberg
ideal bmono 0 0 1
"""


def upper5_text():
    size = 5
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    idx = {pr: m + 1 for m, pr in enumerate(pairs)}
    lines = ["p 3", f"dim {len(pairs)}", "prec 6"]
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a >= b:
                continue
            if j == k:
                lines.append(f"bracket {a+1} {b+1} {idx[(i,l)]} 3")
            if l == i:
                lines.append(f"bracket {a+1} {b+1} {idx[(k,j)]} -3")
    return "\n".join(lines) + "\n"


def report(num, label, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[PASS] criterion {num}: {label}{suffix}")


def test_criterion_1_example_reproduction(tmp_path, capsys):
    t0 = time.monotonic()
    e2 = tmp_path / "example2.txt"
    e2.write_text(EXAMPLE2)
    assert main(["ucs", str(e2)]) == 0
    out = capsys.readouterr().out
    assert "Z_2 = span{x2, x3, x5}" in out
    assert "C(Z_2) = span{x2, x3, x4, x5}" in out

    u5 = tmp_path / "upper5.txt"
    u5.write_text(upper5_text())
    assert main(["ucs", str(u5)]) == 0
    out = capsys.readouterr().out
    # basis index 1 is the (1,2) matrix entry and index 10 the (4,5) entry
    assert "C(Z_2) = span{x2, x3, x4, x5, x6, x7, x8, x9}" in out
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "ucs reproduces both worked examples", elapsed)


def test_criterion_2_valuation_identities(capsys):
    t0 = time.monotonic()
    for p in (2, 3, 5):
        fact_val = 0
        fact = 1
        for k in range(1, 10**4 + 1):
            fact_val += vp(k, p)
            assert legendre_factorial_val(k, p) == fact_val
        assert legendre_factorial_val(0, p) == 0
    checked = 0
    for p in (2, 3, 5):
        m = 1
        while p**m <= 3**7:
            pm = p**m
            for k in range(1, pm):
                assert vp_binom_prime_power(m, k, p) == vp(math.comb(pm, k), p)
                checked += 1
            m += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        report(2, f"Legendre and binomial valuations exact ({checked} binomials)", elapsed)


def test_criterion_3_value_lemma(capsys):
    t0 = time.monotonic()
    rng = random.Random(99)
    failures = 0
    checked = 0
    for chart in (cyclic_chart(P), heisenberg_chart(P)):
        Q = build_quotient(chart, 3, 6, size_budget=10**5, verify=False)
        floor = Q.floor  # min(6, 3*1+1) = 4
        one = AlgebraElement.one(Q)
        # weight >= 2 building blocks: p*b_i, b_i*b_j, p^2 and (for the
        # Heisenberg chart) the weight-2 generator b_3
        blocks = [b_element(Q, i).scale(P) for i in range(Q.dim)]
        blocks += [
            b_element(Q, i) * b_element(Q, j)
            for i in range(Q.dim)
            for j in range(Q.dim)
        ]
        blocks.append(AlgebraElement(Q, {0: P * P}))
        if chart.omega_weights[-1] == 2:
            blocks.append(b_element(Q, Q.dim - 1))
        count = 0
        while count < 50:
            y = AlgebraElement.zero(Q)
            for _ in range(rng.randrange(1, 4)):
                y = y + rng.choice(blocks).scale(rng.randrange(1, P**3))
            base = lazard_value(y)
            if not base.exact or base.value < 2:
                continue
            count += 1
            x = one + y
            w = base.value
            for m in range(0, floor - w):
                lhs = lazard_value(x ** (P**m) - one)
                checked += 1
                if lhs.value != w + m:
                    failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    with capsys.disabled():
        report(3, f"w(x^(p^m)-1) = m + w(x-1), {checked} cells, 0 failures", elapsed)


def test_criterion_4_mahler_roundtrip(capsys):
    t0 = time.monotonic()
    N, D = 3, 27
    q = P**N
    rng = random.Random(7)
    fns = []
    # polynomial-in-binomials family
    for _ in range(10):
        deg = rng.randrange(1, 7)
        coeffs = [rng.randrange(1, q) for _ in range(deg + 1)]
        fns.append(
            (
                "poly",
                deg,
                lambda b, c=coeffs: sum(
                    ci * math.comb(b, i) for i, ci in enumerate(c)
                )
                % q,
            )
        )
    # twisted-exponential family (1 + p*u)^b
    for _ in range(10):
        u = rng.randrange(1, q)
        if u % P == 0:
            u += 1
        fns.append(("twist", None, lambda b, u=u: pow(1 + P * u, b, q)))
    for kind, deg, f in fns:
        T = mahler_coeffs(f, 1, D, P, N)
        for b in range(q):
            assert reconstruct(T, (b,)) % q == f(b)
        if kind == "poly":
            assert T.support_shell() == deg
        else:
            decays = [v for v in T.decay_log if v is not None]
            assert all(a < b for a, b in zip(decays, decays[1:]))
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(4, "20 functions reconstructed exactly on Z/27 at D=27", elapsed)


def test_criterion_5_factorization_equivalence(capsys):
    t0 = time.monotonic()
    heis = heisenberg_chart(P)
    u4 = unipotent_chart(P, 4)
    heis_q = build_quotient(heis, 2, 2)
    u4_q = build_quotient(u4, 2, 2, size_budget=10**6, verify=False)
    swap = AutomorphismSpec.from_words(heis, [(0, 1, 0), (1, 0, 0), (0, 0, -1)], name="swap")
    flip_words = [
        (0, 0, 0, 0, 0, -1),
        (0, 0, 0, 0, -1, 0),
        (0, 0, -1, 0, 0, 0),
        (0, 0, 0, -1, 0, 0),
        (0, -1, 0, 0, 0, 0),
        (-1, 0, 0, 0, 0, 0),
    ]
    flip = AutomorphismSpec.from_words(u4, flip_words, name="flip")
    cases = [
        (heis_q, AutomorphismSpec.identity(heis), 3, True),
        (heis_q, AutomorphismSpec.conjugation(heis, heis.generators[0]), 3, True),
        (heis_q, AutomorphismSpec.conjugation(heis, heis.generators[1]), 3, True),
        (heis_q, AutomorphismSpec.conjugation(heis, heis.generators[2]), 3, True),
        (heis_q, AutomorphismSpec.conjugation(heis, heis.word((1, 1, 0))), 3, True),
        (heis_q, swap, 3, False),
        (heis_q, swap.compose(swap), 3, True),  # the swap squares to the identity
        (u4_q, AutomorphismSpec.identity(u4), 2, True),
        (u4_q, AutomorphismSpec.conjugation(u4, u4.generators[0]), 2, True),
        (u4_q, flip, 2, False),
    ]
    for Q, phi, degree, expected in cases:
        assert phi.verify_homomorphism(Q), phi.name
        by_formula, by_commutation, witness = is_mahler_aut(phi, Q, degree)
        assert by_formula == by_commutation, phi.name
        assert (witness is None) == by_formula, phi.name
        assert by_formula == expected, phi.name
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(5, f"{len(cases)} specs: by_formula == by_commutation in all", elapsed)


def test_criterion_6_expansion_convergence(capsys):
    t0 = time.monotonic()
    chart = heisenberg_chart(P)
    Q = build_quotient(chart, 2, 4)  # floor = 3
    phi = AutomorphismSpec.conjugation(chart, chart.generators[0])
    D = 2 * (P**2 - 1)  # 16
    table = aut_mahler_coeffs(phi, Q, D)
    order = sorted(table.entries.items(), key=lambda kv: sum(kv[0]))
    reached = 0
    for g in range(Q.size):
        x = AlgebraElement.group_element(Q, g)
        target = phi.apply_element(x)
        approx = AlgebraElement.zero(Q)
        pos = 0
        last = -1
        for d in range(D + 1):
            while pos < len(order) and sum(order[pos][0]) <= d:
                alpha, m = order[pos]
                term = divided_power(alpha, x)
                if not term.is_zero():
                    approx = approx + m * term
                pos += 1
            res = lazard_value(target - approx)
            cur = res.value if res.exact else Q.floor
            assert cur >= last, (g, d)
            last = cur
        assert not lazard_value(target - approx).exact, g
        reached += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(6, f"residuals hit the floor for all {reached} elements by D={D}", elapsed)


def test_criterion_7_growth_dichotomy(tmp_path, capsys):
    t0 = time.monotonic()
    path = tmp_path / "conj.txt"
    path.write_text(HEIS_CONJ)
    assert main(["growth", str(path), "--level", "4", "--coeff-prec", "6",
                 "--m-max", "2", "--regime", "char0",
                 "--size-budget", "10000000", "--format", "structured"]) == 0
    char0 = json.loads(capsys.readouterr().out)
    assert char0["fits"]["2"] == {"law": "affine", "lambda": 2, "fit_exact": True}
    assert [c["value"] for c in char0["table"]["2"]] == [2, 3, 4]

    assert main(["growth", str(path), "--level", "2", "--m-max", "1",
                 "--regime", "charp", "--format", "structured"]) == 0
    charp = json.loads(capsys.readouterr().out)
    assert charp["fits"]["2"] == {"law": "p-power", "lambda": 2, "fit_exact": True}
    assert [c["value"] for c in charp["table"]["2"]] == [2, 6]
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(7, "v(q_m) = lambda+m (char0) and p^m*lambda (charp), exact", elapsed)


def test_criterion_8_control_cross_check(capsys):
    t0 = time.monotonic()
    rng = random.Random(17)
    cells = 0
    ideals = 0

    def sweep(I):
        nonlocal cells, ideals
        lat = control_lattice(I)
        for e, (d, a) in lat.items():
            assert d == a, (I.quotient.chart.name, e)
        cells += len(lat)
        ideals += 1
        return lat

    def random_ideal(Q, scale=1):
        gen = AlgebraElement(
            Q,
            {
                rng.randrange(Q.size): scale * rng.randrange(1, P**Q.N)
                for _ in range(3)
            },
        )
        return ideal_closure([gen], side="right", quotient=Q)

    charts = {
        "cyclic": cyclic_chart(P),
        "abelian2": abelian_chart(P, 2),
        "heisenberg": heisenberg_chart(P),
    }
    # the bulk of the random ideals on the small stages
    for name, chart in charts.items():
        for n in (1, 2):
            if name == "heisenberg" and n == 2:
                continue
            Q = build_quotient(chart, n, 2)
            for _ in range(9):
                sweep(random_ideal(Q))

    # a couple of ideals on the largest stage (|Q| = 729)
    heis2 = build_quotient(charts["heisenberg"], 2, 2)
    sweep(random_ideal(heis2))
    sweep(random_ideal(heis2, scale=P))

    # central-generator ideals: controller pinned at the centre axis
    for n in (1, 2):
        Q = build_quotient(charts["heisenberg"], n, 2)
        I = ideal_closure([b_element(Q, 2)], side="right", quotient=Q)
        lat = sweep(I)
        assert controller_estimate(I, lat) == (n, n, 0)
        Qa = build_quotient(charts["abelian2"], n, 2)
        Ia = ideal_closure([b_element(Qa, 1)], side="right", quotient=Qa)
        lat = sweep(Ia)
        assert controller_estimate(Ia, lat) == (n, 0)
        Qc = build_quotient(charts["cyclic"], n, 2)
        Ic = ideal_closure([b_element(Qc, 0)], side="right", quotient=Qc)
        lat = sweep(Ic)
        assert controller_estimate(Ic, lat) == (0,)

    elapsed = time.monotonic() - t0
    assert ideals >= 50
    assert elapsed < 60.0
    with capsys.disabled():
        report(8, f"{ideals} ideals, {cells} lattice cells, all verdicts agree", elapsed)


def test_criterion_9_idempotent_dichotomy(capsys):
    t0 = time.monotonic()
    checked = 0
    for p in (3, 5):
        for n in range(0, 5):
            q = p ** (n + 1)
            for residue in range(q):
                beta = PadicScalar(p, n + 1, residue)
                out = idempotent_power(beta, n)
                want = 1 if residue % p else 0
                assert out.residue == want, (p, n, residue)
                checked += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(9, f"0/1 dichotomy exact on {checked} residues", elapsed)


def test_criterion_10_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    runs = []
    ideal = tmp_path / "ideal.txt"
    ideal.write_text(CENTRAL_IDEAL)
    conj = tmp_path / "conj.txt"
    conj.write_text(HEIS_CONJ)
    jobs = [
        ["control", str(ideal), "--format", "structured", "--seed", "42"],
        ["mahler", str(conj), "--level", "1", "--degree", "3",
         "--format", "structured", "--seed", "42"],
        ["growth", str(conj), "--level", "2", "--m-max", "1",
         "--regime", "charp", "--format", "structured", "--seed", "42"],
    ]
    for args in jobs:
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)
        runs.append(args[0])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report(10, f"byte-identical structured reports ({', '.join(runs)})", elapsed)
