"""Inputs that used to give wrong numbers or a stray error are refused.

A function or half-space whose coefficient count is not the chain's
group dimension used to be truncated by ``zip``, and so did a function
evaluated at a point of another group, a form paired with a chain of
another group and a multivector of another dimension tested for
admissibility; a ramp weight of band width h <= 0 used to construct; a
property report with no level used to fail with an ``IndexError`` in P4,
and one on an empty chain with a bare ``ValueError`` from P5's default
sweep.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import horizontal_square_chain, origin, unit_cube_chain, unit_segment_chain

from ruminslice import (
    DimensionMismatchError,
    GammaWeight,
    HeisParams,
    MultiVector,
    ParameterError,
    Point,
    PolyForm,
    Simplex,
    SimplicialCurrent,
    is_admissible,
    measure_of,
    pair_form,
    restrict_by_fn,
    restrict_to_set,
    slice_minus,
    slice_plus,
)
from ruminslice.clipping import HalfSpace
from ruminslice.slicing import (
    AffineFunction,
    band_measure,
    band_trend,
    coarea_sweep,
    lipschitz_estimate,
    measure_between,
    property_report,
)

F = Fraction
H1_X = AffineFunction((1, 0, 0))  # x1 over H^1, three coefficients


class TestWrongDimension:
    @pytest.mark.parametrize("call", [
        lambda T: slice_plus(T, H1_X, F(1, 3)),
        lambda T: slice_minus(T, H1_X, F(1, 3)),
        lambda T: coarea_sweep(T, H1_X, 0, 1, 4),
        lambda T: measure_between(T, H1_X, 0, F(1, 2)),
        lambda T: band_measure(T, H1_X, 0, F(1, 2)),
        lambda T: band_trend(T, H1_X, F(1, 3), [F(1, 4)]),
        lambda T: property_report(T, H1_X, [F(1, 3)]),
        lambda T: property_report(T, H1_X, [F(1, 3)], properties={0}),
        lambda T: restrict_by_fn(T, GammaWeight((1, 0, 0), 0, 0, F(1, 2))),
    ], ids=["slice_plus", "slice_minus", "coarea_sweep", "measure_between", "band_measure",
            "band_trend", "property_report", "property_report_P0", "restrict_by_fn"])
    def test_h1_function_on_an_h2_chain(self, call):
        with pytest.raises(DimensionMismatchError):
            call(horizontal_square_chain())

    def test_short_half_space(self):
        cube = unit_cube_chain()
        for region in ([HalfSpace((1,), F(1, 2))], HalfSpace((1, 0, 0, 0, 0), F(1, 2))):
            with pytest.raises(DimensionMismatchError):
                measure_of(cube, region)
            with pytest.raises(DimensionMismatchError):
                restrict_to_set(cube, region)

    @pytest.mark.parametrize("point", [
        (1, 0, 1, 0, 0), (1, 0), Point.from_coords((1, 0, 1, 0, 0)),
    ], ids=["h2_coords", "short_coords", "h2_point"])
    def test_a_point_of_another_group(self, point):
        with pytest.raises(DimensionMismatchError):
            H1_X(point)

    @pytest.mark.parametrize("coords", [(F(1, 4), 3, 0, 0, 0), (F(1, 4), 3, 0, 0, 0, 0, 0)],
                             ids=["h2_point", "h3_point"])
    def test_a_ramp_weight_at_a_point_of_another_group(self, coords):
        # zip would read (1/4, 3, 0) of the H^2 point and give 1/2
        weight = GammaWeight((1, 0, 0), 0, 0, F(1, 2))
        with pytest.raises(DimensionMismatchError):
            weight(Point.from_coords(coords))

    @pytest.mark.parametrize("pairing", [
        pair_form,
        lambda T, omega: restrict_by_fn(T, lambda p: 1).pair(omega),
    ], ids=["pair_form", "restrict_by_fn"])
    def test_a_form_over_another_group(self, pairing):
        # zip would read dx2's frame index 1 as H^1's dy1 and give 1
        segment = SimplicialCurrent(HeisParams(1), 1, [Simplex(((0, 0, 0), (0, 1, 0)))])
        dx2 = PolyForm(HeisParams(2), 1, {(1,): 1})
        with pytest.raises(DimensionMismatchError):
            pairing(segment, dx2)

    @pytest.mark.parametrize("V,n", [
        (MultiVector(5, 1, {(4,): 1}), 1),
        (MultiVector(3, 1, {(0,): 1}), 2),
    ], ids=["h2_vector_over_h1", "h1_vector_over_h2"])
    def test_is_admissible_on_a_multivector_of_another_dimension(self, V, n):
        with pytest.raises(DimensionMismatchError):
            is_admissible(V, n)

    def test_lipschitz_estimate_on_points_of_another_group(self):
        pairs = [(origin(2), Point.from_coords((1, 0, 0, 0, 0)))]
        with pytest.raises(DimensionMismatchError):
            lipschitz_estimate(H1_X, pairs)

    def test_matching_dimension_still_slices(self):
        square = horizontal_square_chain()
        assert slice_plus(square, AffineFunction((1, 0, 0, 0, 0)), F(1, 3)).mass == 1
        assert measure_of(unit_cube_chain(), [HalfSpace((1, 0, 0), F(1, 2))]) == F(1, 2)


@pytest.mark.parametrize("h", [0, -1, F(-1, 2), 0.0])
def test_gamma_weight_refuses_nonpositive_band_width(h):
    with pytest.raises(ParameterError, match="band width"):
        GammaWeight((1, 0, 0), 0, F(1, 2), h)


class TestReportWithoutLevels:
    @pytest.mark.parametrize("properties", [None, {4}, {6}, {0, 4}])
    def test_a_property_that_needs_a_level_is_refused(self, properties):
        with pytest.raises(ParameterError, match="at least one level"):
            property_report(unit_segment_chain(), H1_X, [], properties=properties)

    def test_properties_without_a_level_still_run(self):
        report = property_report(unit_segment_chain(), H1_X, [], properties={0, 1, 2, 3})
        assert [e.key for e in report.entries] == ["P0", "P1", "P2", "P3"]
        assert report.passed()


class TestReportOnAnEmptyChain:
    EMPTY = SimplicialCurrent(HeisParams(1), 1, [])

    def test_the_default_sweep_is_refused(self):
        with pytest.raises(ParameterError, match="empty chain"):
            property_report(self.EMPTY, H1_X, [F(1, 2)])

    def test_an_explicit_sweep_or_no_p5_still_runs(self):
        report = property_report(self.EMPTY, H1_X, [F(1, 2)], sweep=(0, 1, 4))
        assert [e.key for e in report.entries] == ["P0", "P1", "P2", "P3", "P4", "P5", "P6"]
        report = property_report(self.EMPTY, H1_X, [F(1, 2)], properties={0, 1, 2, 3, 6})
        assert report.passed()
