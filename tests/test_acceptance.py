"""Acceptance gate: every shipped guarantee, one criterion per test.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run with
``pytest -s`` to see them as they execute).  All identities tagged exact
are checked in rational arithmetic with ``==``; numeric criteria carry
their tolerances inline.

One criterion is expected to fail and is pinned as a strict xfail:
criterion 10b asks that wedging a comass-normalized covector with
dx1 + ... + dyn never raise the comass estimate above 1 + 1e-6.  That
statement is false.  Counterexample over H^1: omega = theta^dx -
theta^dy has comass sqrt(2) (every 2-vector in R^3 is simple), while
(dx + dy) ^ omega = 2 dx^dy^theta has comass 2, so the normalized wedge
reaches sqrt(2) > 1.  At degree k = 0 the failure is immediate:
dx1 + ... + dyn itself has comass sqrt(2n).  The sign-cancellation step
that would give the bound fails because the complementary coefficients
flip sign together with the shuffle parity.  See the band and coarea
criteria (7, 8) for the slicing bounds themselves, which do hold.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import FIXTURES, horizontal_square_chain, unit_cube_chain

from ruminslice import (
    Covector,
    HeisParams,
    MiddleDimensionError,
    Point,
    Simplex,
    SimplicialCurrent,
    boundary,
    comass_estimate,
    dilate,
    group_mul,
    hodge_star,
    koranyi_dist,
    koranyi_norm_fourth,
    load_chain,
    mass,
    parse_form,
    print_form,
    rumin_class,
    slice_minus,
    slice_plus,
    wedge,
)
from ruminslice.algebra import MultiVector, all_blades
from ruminslice.cli import main as cli_main
from ruminslice.forms import random_form
from ruminslice.formio import save_chain
from ruminslice.quadrature import parameter_nodes, rule_for_degree
from ruminslice.rumin import d_c
from ruminslice.slicing import AffineFunction, band_trend, coarea_sweep, property_report
from ruminslice.verify import complex_battery, lemma_battery, random_I_form

F = Fraction
SEED = 20902


def _report(key: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {key}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{key}: {detail}"


@pytest.fixture(scope="module")
def lemma_batteries():
    return {n: lemma_battery(n, SEED, 50) for n in (1, 2)}


def _rows(battery, prefix):
    return [(name, passed, total) for name, passed, total in battery.checks
            if name.startswith(prefix)]


def test_criterion_01_complex_exactness():
    """d_c o d_c = 0 exactly, n = 1 and 2, 100 seeded classes, under 60 s."""
    start = time.monotonic()
    batteries = [complex_battery(n, SEED, 100) for n in (1, 2)]
    elapsed = time.monotonic() - start
    ok = all(b.ok for b in batteries) and elapsed <= 60
    degrees = sum(
        1 for b in batteries for name, _, _ in b.checks if name.startswith("dc o dc")
    )
    _report("1 complex-exactness", ok,
            f"{degrees} degree checks, 100 classes each, {elapsed:.1f}s")


def test_criterion_02_commutation_closed_forms(lemma_batteries):
    """The differential-vs-multiplication defect equals its closed form.

    Low regime at n = 2, middle and high regimes at n = 1 and n = 2;
    50 seeded cases per regime, exact equality.
    """
    ok = True
    counted = []
    for n, labels in ((1, ["middle degree", "degree 2 > n"]),
                      (2, ["degree 0 < n", "degree 1 < n", "middle degree",
                           "degree 3 > n", "degree 4 > n"])):
        battery = lemma_batteries[n]
        for label in labels:
            rows = [(name, p, t) for name, p, t in battery.checks
                    if name.startswith("commutation closed form") and label in name]
            ok = ok and rows and all(p == t == 50 for _, p, t in rows)
            counted.extend(rows)
    _report("2 commutation-battery", bool(ok), f"{len(counted)} regimes x 50 exact")


def test_criterion_03_lefschetz_commutator(lemma_batteries):
    """scr_L(g w) - g scr_L(w) equals the solved closed form, exactly."""
    ok = True
    for n in (1, 2):
        rows = _rows(lemma_batteries[n], "Lefschetz commutator")
        ok = ok and rows and all(p == t == 50 for _, p, t in rows)
    _report("3 lefschetz-commutator", bool(ok), "50 cases per branch, n = 1, 2")


def test_criterion_04_middle_commutator_in_J(lemma_batteries):
    """Both wedge conditions vanish identically for the middle commutator."""
    ok = True
    for n in (1, 2):
        rows = _rows(lemma_batteries[n], "middle commutator lands in J")
        ok = ok and len(rows) == 2 and all(p == t == 50 for _, p, t in rows)
    _report("4 middle-commutator-in-J", bool(ok),
            "theta-free and theta^beta branches, 50 cases each, n = 1, 2")


def test_criterion_05_middle_operator_class_invariance():
    """The second-order operator ignores contact-ideal shifts, exactly."""
    ok = True
    for n in (1, 2):
        params = HeisParams(n)
        rng = random.Random(SEED + n)
        omega = random_form(rng, params, n)
        base = d_c(rumin_class(params, n, omega))
        for _ in range(20):
            shift = random_I_form(rng, params, n)
            ok = ok and d_c(rumin_class(params, n, omega + shift)) == base
    _report("5 middle-operator-invariance", bool(ok), "20 ideal shifts, n = 1, 2")


def test_criterion_06_slicing_exactness():
    """Cube with f = x at 20 generic levels: plus/minus equality, support,
    boundary anticommutation, all in exact rational arithmetic."""
    cube = unit_cube_chain()
    f = AffineFunction((F(1), F(0), F(0)))
    bdry = boundary(cube)
    levels = [F(2 * i + 1, 40) for i in range(20)]
    p1_ok = p2_ok = p3_ok = True
    for t in levels:
        plus = slice_plus(cube, f, t)
        minus = slice_minus(cube, f, t)
        p1_ok = p1_ok and plus.chain == minus.chain
        for s in plus.chain.simplices:
            for v in s.vertices:
                p2_ok = p2_ok and f(v) == t
            rule = rule_for_degree(s.degree, 2)
            for coords, _ in parameter_nodes(s.vertices, rule):
                p2_ok = p2_ok and f(coords) == t
        left = boundary(plus.chain).canonical()
        right = (-slice_plus(bdry, f, t).chain).canonical()
        p3_ok = p3_ok and left == right
    _report("6 slicing-exactness", p1_ok and p2_ok and p3_ok,
            f"P1={p1_ok} P2={p2_ok} P3={p3_ok} at 20 levels")


def test_criterion_07_coarea_sweep():
    """Equality case integral 1 within 1e-3 at grid 100; the diagonal
    function stays within ratio 1 + 1e-2."""
    cube = unit_cube_chain()
    f = AffineFunction((F(1), F(0), F(0)))
    result = coarea_sweep(cube, f, F(0), F(1), 100)
    equality_ok = abs(float(result.integral) - 1) <= 1e-3 and abs(result.ratio - 1) <= 1e-3
    inv_sqrt2 = 1 / math.sqrt(2)
    diagonal = AffineFunction((inv_sqrt2, inv_sqrt2, 0.0), 0.0)
    strict = coarea_sweep(cube, diagonal, 0.0, math.sqrt(2), 100)
    strict_ok = strict.ratio <= 1 + 1e-2
    _report("7 coarea-sweep", equality_ok and strict_ok,
            f"equality ratio {result.ratio:.6f}, diagonal ratio {strict.ratio:.6f}")


def test_criterion_08_band_bound_trend():
    """Slice mass against the shrinking band bound, h = 2^-2 .. 2^-8,
    on the cube and on the horizontal square in H^2; final excess <= 1e-3."""
    h_values = [F(1, 2) ** k for k in range(2, 9)]
    ok = True
    worst = 0.0
    cube = unit_cube_chain()
    rows = band_trend(cube, AffineFunction((F(1), F(0), F(0))), F(1, 3), h_values)
    ok = ok and all(exc <= 1e-3 or h != h_values[-1] for h, _, _, exc in rows)
    ok = ok and rows[-1][3] <= 1e-3
    worst = max(worst, max(exc for _, _, _, exc in rows))
    square = horizontal_square_chain()
    f2 = AffineFunction((F(1), F(0), F(0), F(0), F(0)))
    rows = band_trend(square, f2, F(2, 5), h_values)
    ok = ok and rows[-1][3] <= 1e-3
    worst = max(worst, max(exc for _, _, _, exc in rows))
    _report("8 band-bound-trend", bool(ok), f"worst excess {worst:.2e}")


def test_criterion_09_metric_suite():
    """Left invariance, dilation homogeneity, symmetry, triangle
    inequality on 10^4 random samples at 1e-12; vertical norm exact."""
    rng = random.Random(SEED)

    def rand_point():
        return Point.from_coords([rng.uniform(-1, 1) for _ in range(3)])

    ok = koranyi_norm_fourth(Point((F(0),), (F(0),), F(1))) == 16
    for _ in range(10_000):
        p, q, r = rand_point(), rand_point(), rand_point()
        d_qr = koranyi_dist(q, r)
        ok = ok and abs(koranyi_dist(group_mul(p, q), group_mul(p, r)) - d_qr) \
            <= 1e-12 * (1 + d_qr)
        factor = rng.uniform(0.01, 10.0)
        d_pq = koranyi_dist(p, q)
        ok = ok and abs(koranyi_dist(dilate(factor, p), dilate(factor, q))
                        - factor * d_pq) <= 1e-12 * factor * (1 + d_pq)
        ok = ok and abs(d_pq - koranyi_dist(q, p)) <= 1e-12
        ok = ok and koranyi_dist(p, r) <= d_pq + koranyi_dist(q, r) + 1e-12
        if not ok:
            break
    _report("9 metric-suite", bool(ok), "10^4 samples, norm^4(0,0,1) = 16 exact")


def test_criterion_10a_hodge_involution():
    """Double Hodge star is the identity on every blade, n = 1 and 2."""
    ok = True
    count = 0
    for n in (1, 2):
        dim = 2 * n + 1
        for k in range(dim + 1):
            for blade in all_blades(dim, k):
                v = MultiVector.blade(dim, blade)
                ok = ok and hodge_star(hodge_star(v)) == v
                count += 1
    _report("10a hodge-involution", bool(ok), f"{count} blades exhaustively")


@pytest.mark.xfail(
    strict=True,
    reason="mathematically unattainable: (dx+dy) ^ (theta^dx - theta^dy) = "
    "2 dx^dy^theta doubles the comass of a unit-comass covector, and at "
    "degree 0 the horizontal coframe sum alone has comass sqrt(2n); "
    "see the module docstring",
)
def test_criterion_10b_shuffle_comass_bound():
    """Verbatim: 200 rescaled random covectors per degree k != n must keep
    the wedge-with-horizontal-sum comass estimate at most 1 + 1e-6."""
    rng = random.Random(SEED)
    ok = True
    for n in (1, 2):
        dim = 2 * n + 1
        dw_sum = Covector(dim, 1, {(j,): F(1) for j in range(2 * n)})
        for k in range(0, dim):
            if k == n:
                continue
            for _ in range(200):
                coeffs = {b: F(rng.randint(-9, 9)) for b in all_blades(dim, k)}
                omega = Covector(dim, k, coeffs)
                if omega.is_zero():
                    continue
                scale = comass_estimate(omega, 60, rng)
                rescaled = omega.scale(1 / F(scale))
                estimate = comass_estimate(wedge(dw_sum, rescaled), 60, rng)
                ok = ok and estimate <= 1 + 1e-6
    _report("10b shuffle-comass-bound", bool(ok), "200 covectors per degree")


def test_criterion_11_middle_dimension_scope(tmp_path, capsys):
    """Mass-bound requests at slice dimension k = n are refused with the
    documented scope error, library and CLI, for 2-currents in H^1."""
    params = HeisParams(1)
    square = SimplicialCurrent(params, 2, [
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0))), F(1)),
        Simplex(((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0))), F(1)),
    ])
    f = AffineFunction((F(1), F(0), F(0)))
    library_ok = True
    try:
        coarea_sweep(square, f, F(0), F(1), 4)
        library_ok = False
    except MiddleDimensionError:
        pass
    try:
        band_trend(square, f, F(1, 3), [F(1, 4)])
        library_ok = False
    except MiddleDimensionError:
        pass
    try:
        property_report(square, f, [F(1, 3)], properties={4})
        library_ok = False
    except MiddleDimensionError:
        pass
    path = tmp_path / "middle.json"
    save_chain(square, path)
    code = cli_main(["coarea", "--chain", str(path), "--f", "x1",
                     "--a", "0", "--b", "1", "--grid", "4"])
    err = capsys.readouterr().err
    cli_ok = code == 2 and "open" in err
    _report("11 middle-scope-guard", library_ok and cli_ok,
            f"library errors raised, CLI exit {code}")


def test_criterion_12_parser_and_io(capsys):
    """Round-trip corpus, exact cube mass from the fixture file, and
    byte-identical CLI reports across two equal-seed runs."""
    rng = random.Random(SEED)
    round_trip_ok = True
    cases = 0
    for n in (1, 2):
        params = HeisParams(n)
        for grade in range(0, 2 * n + 2):
            for _ in range(5):
                form = random_form(rng, params, grade, max_degree=2, terms=2)
                round_trip_ok = round_trip_ok and \
                    parse_form(print_form(form), params) == form
                cases += 1
    cube = load_chain(FIXTURES / "cube_h1.json")
    mass_ok = mass(cube) == F(1)
    args = ["verify-lemmas", "--n", "1", "--seed", "5", "--count", "3"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    determinism_ok = first == second and first
    _report("12 parser-and-io", round_trip_ok and mass_ok and bool(determinism_ok),
            f"{cases} round-trips, cube mass exact, reports byte-identical")
