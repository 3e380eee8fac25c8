"""Masses and level-window measures summed per denominator.

``mass`` and ``slicing._window_measures`` keep their exact terms as ints
per denominator (``currents._Sum``) until a float enters; the first
float turns the exact part into one Fraction and the sum goes on in the
order of the terms.  These tests hold the sums to a left fold from
Fraction(0), and ``mass`` and the window measures to the Fraction
oracles in ``conftest`` (``fraction_mass``, ``fraction_window_measures``),
in value and type, with floats bit for bit, on chains whose simplices
mix exact masses, varying tangents (sections by t) and irrational
constant norms (sections by x1 + 2 y1) in either order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture, fraction_mass, fraction_window_measures

from ruminslice import AffineFunction, mass, slice_plus
from ruminslice.currents import _Sum
from ruminslice.slicing import _window_measures

F = Fraction


def assert_same(ours, theirs):
    """Equal values of one type; floats equal bit for bit."""
    assert type(ours) is type(theirs), (ours, theirs)
    if isinstance(ours, float):
        assert ours.hex() == theirs.hex()
    else:
        assert ours == theirs


exact_terms = st.builds(F, st.integers(min_value=-50, max_value=50),
                        st.integers(min_value=1, max_value=12))
float_terms = st.floats(min_value=-10, max_value=10, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(terms=st.lists(st.tuples(st.one_of(exact_terms, float_terms), st.booleans()),
                      max_size=12))
def test_a_sum_is_the_left_fold_from_zero(terms):
    acc = _Sum()
    expected = F(0)
    for term, as_ratio in terms:
        if as_ratio and isinstance(term, F):
            # an unreduced pair of the same value
            acc.add_ratio(3 * term.numerator, 3 * term.denominator)
        else:
            acc.add(term)
        expected = expected + term
    assert acc.exact() == isinstance(expected, F)
    assert_same(acc.value(), expected)


def section(f_coeffs, t):
    return slice_plus(fixture("cube_h1.json"), AffineFunction(f_coeffs), t).chain


def mixed_chains():
    """2-chains of H^1 whose simplices mix exact and float masses."""
    by_x = section((1, 0, 0), F(1, 3))            # exact masses
    by_t = section((0, 0, 1), F(1, 3))            # varying tangents: floats
    by_xy = section((1, 2, 0), F(1, 2))           # norm sqrt(5): floats
    far = section((1, 0, 0), F(3, 4))
    return {
        "exact": by_x,
        "exact, float": by_x + by_t,
        "float, exact": by_t + by_x,
        "exact, float, exact": by_x + by_xy + far,
        "float, exact, float": by_xy + far + by_t,
    }


CHAINS = mixed_chains()


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_mass_is_the_fraction_oracle(name):
    T = CHAINS[name]
    assert_same(mass(T), fraction_mass(T))
    # a second call reads the whole masses off the table and sums alike
    assert_same(mass(T), fraction_mass(T))


@pytest.mark.parametrize("name", sorted(CHAINS))
@pytest.mark.parametrize("coeffs, const, edges", [
    ((0, 1, 0), F(0), [F(-1), F(1, 5), F(1, 2), F(4, 5), F(2)]),
    ((1, 1, 1), F(1, 7), [F(1, 3), F(2, 3), F(1), F(3, 2), F(2)]),
    ((F(1, 2), 0, 1), F(-1, 3), [F(0), F(1, 3), F(1, 2), F(1)]),
])
def test_window_measures_are_the_fraction_oracle(name, coeffs, const, edges):
    # windows cut exact and float simplices, in the order the chain holds
    # them: an exact simplex after a float one goes through its clip pieces
    # the whole window, folded into the same pass, is the oracle's own window
    T = CHAINS[name]
    f = AffineFunction(coeffs, const)
    (whole, ours), (expected, theirs) = (_window_measures(T, f, edges),
                                         fraction_window_measures(T, f, edges))
    assert_same(whole, expected)
    assert len(ours) == len(theirs) == len(edges) - 1
    for a, b in zip(ours, theirs):
        assert_same(a, b)


def test_the_mixed_windows_hold_both_kinds():
    # the cases above do reach floats after exact terms and exact terms alone
    T = CHAINS["exact, float, exact"]
    f = AffineFunction((1, 1, 1), F(1, 7))
    whole, cells = _window_measures(T, f, [F(1, 3), F(1), F(2)])
    assert {type(m) for m in cells + [whole]} == {float}
    S = CHAINS["exact"]
    g = AffineFunction((0, 1, 0))
    whole, cells = _window_measures(S, g, [F(-1), F(1, 2), F(2)])
    assert {type(m) for m in cells + [whole]} == {F}
