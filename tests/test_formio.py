"""Expression parsing/printing and the chain file format."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from ruminslice import (
    ChainFormatError,
    FormSyntaxError,
    GradeMismatchError,
    HeisParams,
    ParameterError,
    chain_from_dict,
    chain_to_dict,
    load_chain,
    mass,
    parse_affine,
    parse_form,
    print_form,
    save_chain,
)
from ruminslice.fixtures import unit_segment_chain
from ruminslice.formio import MAX_LITERAL_DIGITS
from ruminslice.forms import PolyForm, random_form
from ruminslice.polys import Poly

from conftest import FIXTURES

F = Fraction


def p1():
    return HeisParams(1)


def p2():
    return HeisParams(2)


class TestParser:
    def test_blade(self):
        form = parse_form("dx1^dy1", p1())
        assert form == PolyForm.single(p1(), (0, 1), Poly.const(3, 1))

    def test_polynomial_coefficients(self):
        form = parse_form("t*dx1 - (1/2)*x1*theta", p1())
        expected = PolyForm(p1(), 1, {
            (0,): Poly.var(3, 2),
            (2,): Poly.var(3, 0) * F(-1, 2),
        })
        assert form == expected

    def test_grade_mismatch_named(self):
        with pytest.raises(GradeMismatchError) as err:
            parse_form("dx1 + dx1^dy1", p1())
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_unknown_identifier_with_position(self):
        with pytest.raises(FormSyntaxError) as err:
            parse_form("dx1 + dq7", p1())
        assert "dq7" in str(err.value)
        assert err.value.column == 7

    def test_out_of_range_index(self):
        with pytest.raises(FormSyntaxError):
            parse_form("dx3", p2())

    @pytest.mark.parametrize("text", ["1" * 5000 + "*x1", "x" + "1" * 5000],
                             ids=["number", "variable index"])
    def test_oversized_integer_literal_rejected(self, text):
        with pytest.raises(ParameterError, match="5000 digits"):
            parse_form(text, p1())

    def test_syntax_error_position(self):
        with pytest.raises(FormSyntaxError) as err:
            parse_form("dx1 ^^ dy1", p1())
        assert err.value.column == 6

    def test_scalar_multiplication_binds_tighter_than_wedge(self):
        left = parse_form("2*dx1^dy1", p1())
        right = parse_form("(2*dx1)^dy1", p1())
        assert left == right

    def test_wedge_of_scalars_multiplies(self):
        assert parse_form("x1^x1", p1()) == parse_form("x1*x1", p1())

    def test_star_between_forms_rejected(self):
        with pytest.raises(FormSyntaxError):
            parse_form("dx1*dy1", p1())

    def test_division_by_constant_only(self):
        assert parse_form("dx1/2", p1()) == parse_form("(1/2)*dx1", p1())
        with pytest.raises(FormSyntaxError):
            parse_form("dx1/x1", p1())
        with pytest.raises(FormSyntaxError):
            parse_form("dx1/0", p1())

    def test_unary_minus(self):
        assert parse_form("-dx1 + dx1", p1()).is_zero()


CORPUS = [
    "0",
    "1",
    "x1",
    "t",
    "dx1",
    "theta",
    "dx1^dy1",
    "dx1^dy1^theta",
    "t*dx1 - (1/2)*x1*theta",
    "x1*x1*dy1 + y1*dx1",
    "(t*t - 1)*dy1",
    "3*dx1 - 2*dy1 + theta",
    "-(2/3)*x1*y1*t",
    "x1*dx1^dy1 - t*dx1^theta + dy1^theta",
    "(1/7)*dx1^theta",
]


class TestRoundTrip:
    def test_corpus_n1(self):
        params = p1()
        for text in CORPUS:
            form = parse_form(text, params)
            assert parse_form(print_form(form), params) == form

    def test_corpus_n2(self):
        params = p2()
        texts = [
            "dx2^dy2",
            "x2*dx1^dy2^theta",
            "t*dx1^dx2 - y2*dy1^dy2",
            "dx1^dx2^dy1^dy2^theta",
        ]
        for text in texts:
            form = parse_form(text, params)
            assert parse_form(print_form(form), params) == form

    def test_random_forms_round_trip_50(self):
        rng = random.Random(7)
        cases = 0
        for n in (1, 2):
            params = HeisParams(n)
            for grade in range(0, 2 * n + 2):
                for _ in range(5):
                    form = random_form(rng, params, grade, max_degree=2, terms=2)
                    assert parse_form(print_form(form), params) == form
                    cases += 1
        assert cases >= 50


class TestAffine:
    def test_simple(self):
        f = parse_affine("x1", p1())
        assert f.coeffs == (F(1), F(0), F(0))
        assert f.is_horizontal_affine()
        assert f.lipschitz_constant() == 1

    def test_combined(self):
        f = parse_affine("x1 + y1 - 3", p1())
        assert f.coeffs == (F(1), F(1), F(0))
        assert f.const == F(-3)

    def test_rejects_nonlinear(self):
        with pytest.raises(ParameterError):
            parse_affine("x1*x1", p1())

    def test_rejects_forms(self):
        with pytest.raises(ParameterError):
            parse_affine("dx1", p1())


class TestChainFiles:
    def test_segment_round_trip(self, tmp_path):
        seg = unit_segment_chain()
        path = tmp_path / "segment.json"
        save_chain(seg, path)
        loaded = load_chain(path)
        assert loaded.canonical() == seg.canonical()
        assert mass(loaded) == 1

    def test_cube_fixture_loads_mass_exactly_one(self):
        cube = load_chain(FIXTURES / "cube_h1.json")
        assert mass(cube) == F(1)

    def test_version_mismatch(self):
        data = chain_to_dict(unit_segment_chain())
        data["version"] = "rumin-slice/99"
        with pytest.raises(ChainFormatError, match="version"):
            chain_from_dict(data)

    def test_index_out_of_range(self):
        data = chain_to_dict(unit_segment_chain())
        data["simplices"][0]["vertices"] = [0, 9]
        with pytest.raises(ChainFormatError, match="out of range"):
            chain_from_dict(data)

    def test_zero_multiplicity_rejected(self):
        data = chain_to_dict(unit_segment_chain())
        data["simplices"][0]["multiplicity"] = "0"
        with pytest.raises(ChainFormatError, match="multiplicity"):
            chain_from_dict(data)

    def test_non_rational_literal_rejected(self):
        data = chain_to_dict(unit_segment_chain())
        data["vertices"][0][0] = "0.5"
        with pytest.raises(ChainFormatError, match="non-rational"):
            chain_from_dict(data)
        data["vertices"][0][0] = 0.5
        with pytest.raises(ChainFormatError, match="non-rational"):
            chain_from_dict(data)

    @pytest.mark.parametrize("fault", [
        "top-level list", "simplex entry is a list", "vertex row is a number",
        "vertex row is a string", "boolean vertex index", "boolean coordinate",
        "boolean multiplicity", "vertices is an object", "simplices is a number",
        "boolean quadrature order",
    ])
    def test_malformed_json_types_rejected(self, fault):
        data = chain_to_dict(unit_segment_chain())
        if fault == "top-level list":
            data = [data]
        elif fault == "simplex entry is a list":
            data["simplices"][0] = [0, 1]
        elif fault == "vertex row is a number":
            data["vertices"][0] = 7
        elif fault == "vertex row is a string":
            data["vertices"][0] = "123"
        elif fault == "boolean vertex index":
            data["simplices"][0]["vertices"] = [False, True]
        elif fault == "boolean coordinate":
            data["vertices"][0][0] = True
        elif fault == "boolean multiplicity":
            data["simplices"][0]["multiplicity"] = True
        elif fault == "vertices is an object":
            data["vertices"] = {"0": ["0", "0", "0"]}
        elif fault == "simplices is a number":
            data["simplices"] = 3
        else:
            data["quadrature_order"] = True
        with pytest.raises(ChainFormatError):
            chain_from_dict(data)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ChainFormatError, match="invalid JSON"):
            load_chain(path)

    def test_rational_strings_parsed_exactly(self, tmp_path):
        data = chain_to_dict(unit_segment_chain())
        data["vertices"][1][0] = "2/3"
        chain = chain_from_dict(data)
        assert mass(chain) == F(2, 3)

    @pytest.mark.parametrize("where", ["numerator", "denominator", "json integer"])
    def test_oversized_literal_rejected_before_conversion(self, tmp_path, where):
        # 5000 digits is past Python's own 4300-digit int-string limit
        data = chain_to_dict(unit_segment_chain())
        huge = "1" * 5000
        if where == "numerator":
            data["vertices"][1][0] = huge + "/3"
        elif where == "denominator":
            data["vertices"][1][0] = "1/" + huge
        else:
            data["vertices"][1][0] = "__HUGE__"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data).replace('"__HUGE__"', huge))
        with pytest.raises(ChainFormatError, match="5000 digits"):
            load_chain(path)

    def test_literal_at_the_digit_cap_accepted(self):
        data = chain_to_dict(unit_segment_chain())
        top = "9" * MAX_LITERAL_DIGITS
        data["vertices"][1][0] = f"{top}/{top}"
        assert mass(chain_from_dict(data)) == 1
        data["vertices"][1][0] = "9" + top
        with pytest.raises(ChainFormatError, match="limit is"):
            chain_from_dict(data)

    def test_cube_json_is_valid_json(self):
        with open(FIXTURES / "cube_h1.json", "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["version"] == "rumin-slice/1"
        assert len(data["vertices"]) == 8
        assert len(data["simplices"]) == 6
