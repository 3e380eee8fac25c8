"""Level-set slices: defining formula, seven properties, coarea, bands."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    atom_levels,
    constant_blade_forms,
    horizontal_square_chain,
    unit_cube_chain,
    unit_segment_chain,
)

from ruminslice import (
    DegenerateLevelError,
    GammaWeight,
    HeisParams,
    MiddleDimensionError,
    ParameterError,
    Point,
    Simplex,
    SimplicialCurrent,
    boundary,
    exterior_d,
    gamma_h_eval,
    lipschitz_estimate,
    restrict_by_fn,
    slice_minus,
    slice_plus,
)
from ruminslice import currents, slicing
from ruminslice.slicing import (
    AffineFunction,
    band_measure,
    band_trend,
    coarea_sweep,
    property_report,
)

F = Fraction


def functional_mass_lower(functional, params, grade, extra_forms=()):
    """Lower estimate of the mass of a functional on grade-k forms.

    Maximizes |functional| over the coordinate blade forms (comass
    exactly 1) and any supplied extra forms (assumed comass <= 1).
    """
    best = 0.0
    for omega in list(constant_blade_forms(params, grade)) + list(extra_forms):
        best = max(best, abs(float(functional(omega))))
    return best


def fx_h1():
    return AffineFunction((F(1), F(0), F(0)))


def middle_square_h1():
    """A 2-current in H^1: slices have the middle dimension k = n = 1."""
    params = HeisParams(1)
    return SimplicialCurrent(params, 2, [
        Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0))), F(1)),
        Simplex(((F(0), F(0), F(0)), (F(1), F(1), F(0)), (F(0), F(1), F(0))), F(1)),
    ])


class TestGammaRamp:
    def test_at_level(self):
        assert gamma_h_eval(F(3), F(3), F(1, 2)) == 0

    def test_mid_band(self):
        assert gamma_h_eval(F(13, 4), F(3), F(1, 2)) == F(1, 2)

    def test_above_band(self):
        assert gamma_h_eval(F(4), F(3), F(1, 2)) == 1

    def test_matches_piecewise_oracle(self):
        rng = random.Random(1)
        t, h = F(1, 3), F(2, 7)
        for _ in range(100):
            s = F(rng.randint(-40, 40), rng.randint(1, 12))
            if s <= t:
                expected = F(0)
            elif s >= t + h:
                expected = F(1)
            else:
                expected = (s - t) / h
            assert gamma_h_eval(s, t, h) == expected

    def test_rejects_nonpositive_band(self):
        with pytest.raises(Exception):
            gamma_h_eval(F(0), F(0), F(0))


class TestLipschitz:
    def _pairs(self, rng, n, count=200):
        pairs = []
        for _ in range(count):
            p = Point.from_coords([rng.uniform(-2, 2) for _ in range(2 * n + 1)])
            q = Point.from_coords([rng.uniform(-2, 2) for _ in range(2 * n + 1)])
            pairs.append((p, q))
        return pairs

    def test_coordinate_function(self):
        rng = random.Random(2)
        f = fx_h1()
        sampled, closed = lipschitz_estimate(f, self._pairs(rng, 1))
        assert closed == 1
        assert sampled <= 1 + 1e-9

    def test_constant_function(self):
        rng = random.Random(3)
        f = AffineFunction((F(0), F(0), F(0)), F(5))
        sampled, closed = lipschitz_estimate(f, self._pairs(rng, 1))
        assert sampled == 0
        assert closed == 0

    def test_ramp_composition_bound(self):
        rng = random.Random(4)
        h = F(1, 8)
        base = fx_h1()

        def ramp(p):
            return gamma_h_eval(base(p), F(0), h)

        sampled, _ = lipschitz_estimate(ramp, self._pairs(rng, 1))
        assert sampled <= 1 / h + 1e-9


class TestSliceConstruction:
    def test_segment_point_slice(self):
        seg = unit_segment_chain()
        result = slice_plus(seg, fx_h1(), F(1, 2))
        assert [(s.vertices, s.multiplicity) for s in result.chain.simplices] == [
            (((F(1, 2), F(0), F(0)),), F(1)),
        ]
        assert result.mass == 1
        assert result.residual == 0.0

    def test_cube_cross_section(self):
        cube = unit_cube_chain()
        result = slice_plus(cube, fx_h1(), F(1, 2))
        assert result.chain.degree == 2
        assert result.mass == 1
        assert result.residual <= 1e-9
        for s in result.chain.simplices:
            for v in s.vertices:
                assert v[0] == F(1, 2)

    def test_level_below_support_gives_zero(self):
        cube = unit_cube_chain()
        result = slice_plus(cube, fx_h1(), F(-1))
        assert result.chain.is_empty()
        assert result.mass == 0

    def test_degenerate_level_rejected(self):
        cube = unit_cube_chain()
        with pytest.raises(DegenerateLevelError):
            slice_plus(cube, fx_h1(), F(0))
        with pytest.raises(DegenerateLevelError):
            slice_minus(cube, fx_h1(), F(1))

    def test_plus_equals_minus_at_generic_levels(self):
        cube = unit_cube_chain()
        for t in (F(1, 7), F(2, 5), F(1, 2), F(9, 11)):
            plus = slice_plus(cube, fx_h1(), t)
            minus = slice_minus(cube, fx_h1(), t)
            assert plus.chain == minus.chain

    def test_boundary_anticommutes(self):
        cube = unit_cube_chain()
        f = fx_h1()
        for t in (F(1, 3), F(4, 7)):
            left = boundary(slice_plus(cube, f, t).chain).canonical()
            right = (-slice_plus(boundary(cube), f, t).chain).canonical()
            assert left == right

    def test_oblique_slice_masses(self):
        # plane x + y = t cuts the cube in a strip of width-(sqrt2)
        # cross-section; the frame tangent stays unit there, so the mass
        # equals the Euclidean area sqrt(2) * min(t, 2 - t)
        cube = unit_cube_chain()
        f = AffineFunction((F(1), F(1), F(0)))
        for t in (F(1, 2), F(1, 3), F(3, 2)):
            result = slice_plus(cube, f, t)
            expected = float(min(t, 2 - t)) * 2 ** 0.5
            assert float(result.mass) == pytest.approx(expected, abs=1e-9)

    def test_middle_dimension_flagged_but_computed(self):
        square = middle_square_h1()
        result = slice_plus(square, fx_h1(), F(1, 3))
        assert result.middle_dimension
        # tangent of the cut line is Y + (x/2) T: |V| = sqrt(1 + 1/36)
        assert float(result.mass) == pytest.approx(37 ** 0.5 / 6, abs=1e-12)


class TestBands:
    def test_band_measure_exact(self):
        cube = unit_cube_chain()
        assert band_measure(cube, fx_h1(), F(1, 4), F(1, 8)) == F(1, 8)

    @pytest.mark.parametrize("h", [F(0), F(-1, 4), -0.5])
    def test_nonpositive_band_width_rejected(self, h):
        cube = unit_cube_chain()
        message = f"band width must be positive, got {h}"
        with pytest.raises(ParameterError) as caught:
            band_measure(cube, fx_h1(), F(1, 4), h)
        assert str(caught.value) == message
        with pytest.raises(ParameterError, match="band width must be positive"):
            band_trend(cube, fx_h1(), F(1, 3), [F(1, 4), h])

    def test_band_trend_cube(self):
        cube = unit_cube_chain()
        rows = band_trend(cube, fx_h1(), F(1, 3), [F(1, 2) ** k for k in range(2, 9)])
        for _, m_slice, bound, excess in rows:
            assert m_slice <= bound + 1e-12
            assert excess == 0.0

    def test_band_trend_square_h2(self):
        square = horizontal_square_chain()
        f = AffineFunction((F(1), F(0), F(0), F(0), F(0)))
        rows = band_trend(square, f, F(2, 5), [F(1, 2) ** k for k in range(2, 9)])
        for _, m_slice, bound, excess in rows:
            assert excess == 0.0

    def test_band_trend_middle_dimension_rejected(self):
        with pytest.raises(MiddleDimensionError):
            band_trend(middle_square_h1(), fx_h1(), F(1, 3), [F(1, 4)])

    def test_ramp_functional_dominates_slice_mass(self):
        # at fixed band width the slice mass is already matched by the
        # mass of the ramp-restricted combination, estimated from below
        # on the coordinate-blade battery; band corrections only add
        cube = unit_cube_chain()
        f = fx_h1()
        t = F(1, 3)
        m_slice = float(slice_plus(cube, f, t).mass)
        bdry = boundary(cube)
        for h in (F(1, 4), F(1, 16), F(1, 64)):
            weight = GammaWeight(f.coeffs, f.const, t, h)
            left = restrict_by_fn(bdry, weight)
            right = restrict_by_fn(cube, weight)

            def combination(omega):
                return left.pair(omega) - right.pair(exterior_d(omega))

            estimate = functional_mass_lower(combination, cube.params, 2)
            band_boundary = float(band_measure(bdry, f, t, h))
            band_bulk = float(band_measure(cube, f, t, h)) / float(h)
            assert m_slice <= estimate + band_boundary + band_bulk + 1e-9
            assert estimate >= m_slice - 1e-9


class TestCoarea:
    def test_cube_equality_case(self):
        cube = unit_cube_chain()
        result = coarea_sweep(cube, fx_h1(), F(0), F(1), 20)
        assert result.integral == 1
        assert result.ratio == pytest.approx(1.0, abs=1e-12)
        for row in result.rows:
            assert row.mass == 1
            assert row.band_bound == 1

    def test_chain_below_sweep_window(self):
        seg = unit_segment_chain()
        result = coarea_sweep(seg, fx_h1(), F(2), F(3), 10)
        assert result.integral == 0
        assert result.ratio == 0.0

    def test_middle_dimension_rejected(self):
        with pytest.raises(MiddleDimensionError):
            coarea_sweep(middle_square_h1(), fx_h1(), F(0), F(1), 10)

    def test_csv_rows_have_expected_shape(self):
        cube = unit_cube_chain()
        result = coarea_sweep(cube, fx_h1(), F(0), F(1), 5)
        assert len(result.rows) == 5
        assert result.rows[0].t == F(1, 10)
        assert result.rows[-1].t == F(9, 10)


class TestPropertyReport:
    def test_cube_full_report(self):
        cube = unit_cube_chain()
        levels = [F(2 * i + 1, 16) for i in range(8)]
        report = property_report(cube, fx_h1(), levels, sweep=(F(0), F(1), 20))
        assert report.passed()
        statuses = {e.key: e.status for e in report.entries}
        assert statuses == {f"P{i}": "PASS" for i in range(7)}

    def test_square_h2_report(self):
        square = horizontal_square_chain()
        f = AffineFunction((F(1), F(0), F(0), F(0), F(0)))
        levels = [F(2 * i + 1, 16) for i in range(8)]
        report = property_report(square, f, levels, sweep=(F(0), F(1), 20))
        assert report.passed()

    def test_middle_dimension_skips_mass_bounds(self):
        square = middle_square_h1()
        levels = [F(1, 3), F(1, 2)]
        report = property_report(square, fx_h1(), levels)
        statuses = {e.key: e.status for e in report.entries}
        assert statuses["P4"] == "SKIP"
        assert statuses["P5"] == "SKIP"
        assert statuses["P1"] == "PASS"

    def test_explicit_middle_dimension_request_errors(self):
        square = middle_square_h1()
        with pytest.raises(MiddleDimensionError):
            property_report(square, fx_h1(), [F(1, 3)], properties={4})
        with pytest.raises(MiddleDimensionError):
            property_report(square, fx_h1(), [F(1, 3)], properties={5})

    def test_vertical_f_refused_before_slicing(self, monkeypatch):
        # P4/P5 need a horizontal-affine f; the refusal comes before P0-P3
        sliced = []
        monkeypatch.setattr(slicing, "_slice", lambda *args, **kwargs: sliced.append(args))
        f_t = AffineFunction((F(0), F(0), F(1)))
        with pytest.raises(ParameterError, match="horizontal-affine"):
            property_report(unit_cube_chain(), f_t, [F(1, 3)])
        with pytest.raises(ParameterError, match="horizontal-affine"):
            property_report(unit_cube_chain(), f_t, [F(1, 3)], properties={1, 5})
        assert sliced == []

    def test_band_rows_reuse_the_sampled_slice(self, monkeypatch):
        # P4 reads the slice P1-P3 took at its level instead of slicing again,
        # and prints the rows band_trend gives
        cube = unit_cube_chain()
        f = fx_h1()
        levels = [F(1, 4), F(1, 2), F(3, 4)]
        sliced = []
        original = slicing._slice

        def counting(*args, **kwargs):
            sliced.append(args[2:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(slicing, "_slice", counting)
        report = property_report(cube, f, levels, properties={1, 4})
        assert sorted(sliced) == sorted((t, side) for t in levels for side in "+-")
        rows = band_trend(cube, f, F(1, 2), (F(1, 4), F(1, 16), F(1, 256)))
        trend = ", ".join(f"h={float(h):g}: excess={exc:.3e}" for h, _, _, exc in rows)
        assert report.entries[1].detail.startswith(f"band mass bound at t=1/2: {trend}")

    def test_p1_clips_each_level_once(self, monkeypatch):
        # the minus slice reads the plus slice's clip, and both keep their
        # certificates
        cube = unit_cube_chain()
        levels = [F(1, 4), F(1, 2), F(3, 4)]
        clipped, certified = [], []
        clip_level, certificate = slicing._clip_level, slicing._certificate

        def counting_clips(T, f, t):
            clipped.append(t)
            return clip_level(T, f, t)

        def counting_certificates(chain, formal):
            certified.append(chain)
            return certificate(chain, formal)

        monkeypatch.setattr(slicing, "_clip_level", counting_clips)
        monkeypatch.setattr(slicing, "_certificate", counting_certificates)
        report = property_report(cube, fx_h1(), levels, properties={1})
        assert report.passed()
        assert clipped == levels
        assert len(certified) == 2 * len(levels)

    def test_one_level_table_for_T_and_one_for_its_boundary(self, monkeypatch):
        # the report reads f off one entry of T's table and one of dT's,
        # each built once, and P5's coarea sweep reuses T's
        cube = unit_cube_chain()
        f = fx_h1()
        looked_up, swept = [], []
        dots, sweep = slicing._dots, slicing.coarea_sweep

        def recording_dots(T, g):
            built = g.coeffs not in currents._table(T).functions
            entry = dots(T, g)
            looked_up.append((T, built, entry))
            return entry

        def recording_sweep(*args):
            swept.append(len(looked_up))
            return sweep(*args)

        monkeypatch.setattr(slicing, "_dots", recording_dots)
        monkeypatch.setattr(slicing, "coarea_sweep", recording_sweep)
        assert property_report(cube, f, [F(1, 4), F(1, 2), F(3, 4)]).passed()
        chains = list({id(T): T for T, _, _ in looked_up}.values())
        assert chains == [cube, boundary(cube)] and chains[0] is cube
        for chain in chains:
            entries = [(built, entry) for T, built, entry in looked_up if T is chain]
            assert [built for built, _ in entries] == [True] + [False] * (len(entries) - 1)
            assert all(entry is entries[0][1] for _, entry in entries)
            assert list(currents._table(chain).functions) == [f.coeffs]
        assert len(swept) == 1
        in_sweep = looked_up[swept[0]:]
        assert in_sweep and all(T is cube and not built for T, built, _ in in_sweep)

    def test_random_chains_fuzz(self):
        # random chains, functions, multiplicities: the defining-formula
        # identities must hold exactly at every generic level
        rng = random.Random(424242)
        checked = 0
        for _ in range(20):
            n = rng.choice((1, 2))
            params = HeisParams(n)
            dim = 2 * n + 1
            degree = rng.randint(1, min(3, dim))
            simplices = []
            for _ in range(rng.randint(1, 2)):
                while True:
                    verts = tuple(
                        tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim))
                        for _ in range(degree + 1))
                    try:
                        simplices.append(Simplex(verts, F(rng.choice([-2, -1, 1, 2]))))
                        break
                    except Exception:
                        continue
            chain = SimplicialCurrent(params, degree, simplices)
            coeffs = [F(rng.randint(-3, 3)) for _ in range(dim)]
            if all(c == 0 for c in coeffs):
                coeffs[0] = F(1)
            f = AffineFunction(tuple(coeffs))
            values = sorted({f(v) for v in chain.vertices()})
            if len(values) < 2:
                continue
            lo, hi = values[0], values[-1]
            for _ in range(2):
                t = lo + (hi - lo) * F(rng.randint(1, 999), 1000)
                try:
                    plus = slice_plus(chain, f, t)
                except DegenerateLevelError:
                    continue
                checked += 1
                assert plus.chain == slice_minus(chain, f, t).chain
                assert plus.residual <= 1e-9
                for s in plus.chain.simplices:
                    assert all(f(v) == t for v in s.vertices)
                if degree >= 2:
                    left = boundary(plus.chain).canonical()
                    right = (-slice_plus(boundary(chain), f, t).chain).canonical()
                    assert left == right
        assert checked >= 20

    def test_boundaryful_chain_property3(self):
        # a chain with boundary: half-open segment pair in H^1
        params = HeisParams(1)
        chain = SimplicialCurrent(params, 2, [
            Simplex(((F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(1))), F(1)),
        ])
        f = fx_h1()
        t = F(1, 2)
        left = boundary(slice_plus(chain, f, t).chain).canonical()
        right = slice_plus(boundary(chain), f, t).chain
        total = (left + right).canonical()
        assert total.is_empty()


@st.composite
def grid_chains(draw):
    """Chains with vertices on {0, 1, 2}^(2n+1), where f is often constant on a face."""
    params = HeisParams(draw(st.sampled_from((1, 2))))
    degree = draw(st.integers(min_value=0, max_value=3))
    corner = st.tuples(*(st.integers(min_value=0, max_value=2).map(F)
                         for _ in range(params.dim)))
    simplices = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        vertices = draw(st.lists(corner, min_size=degree + 1, max_size=degree + 1, unique=True))
        try:
            simplices.append(Simplex(tuple(vertices), draw(st.sampled_from((F(-1), F(1), F(2))))))
        except ParameterError:
            continue
    assume(simplices)
    return SimplicialCurrent(params, degree, simplices)


@settings(max_examples=80, deadline=None)
@given(T=grid_chains(), coeffs=st.lists(st.integers(min_value=-1, max_value=1),
                                        min_size=5, max_size=5),
       const=st.integers(min_value=-2, max_value=2))
def test_p0_atoms_are_the_coordinate_atoms(T, coeffs, const):
    f = AffineFunction(tuple(coeffs[:T.params.dim]), F(const, 2))
    atoms = atom_levels(T, f)
    (entry,) = property_report(T, f, [], properties={0}).entries
    shown = "{" + ", ".join(str(a) for a in atoms) + "}"
    assert entry.detail == f"finite atom set of (mu_T + mu_dT) o f^-1: {len(atoms)} level(s) {shown}"
