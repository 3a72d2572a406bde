"""Counting legs: recurrences, series, brute force, and cross-checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclat import enumeration
from nclat.enumeration import (
    TABLE_LEGS,
    BivariateSeries,
    CountTable,
    CrossCheck,
    brute_table,
    catalan,
    cross_check,
    s_table,
    series_S,
    series_T,
    series_U,
    series_V,
    series_table,
    t_closed,
    t_sequence,
    u_table,
    v_table,
)
from nclat.errors import InvalidInput, TooLarge, UnknownFamily
from nclat.geometry import standard_config
from nclat.partition import count_noncrossing

# frozen reference tables, 0 <= m,n <= 4, rows indexed by m
U_TABLE = [
    [0, 1, 2, 4, 8],
    [1, 2, 5, 12, 28],
    [2, 5, 14, 37, 94],
    [4, 12, 37, 106, 289],
    [8, 28, 94, 289, 838],
]
V_TABLE = [
    [1, 2, 4, 8, 16],
    [2, 5, 12, 28, 64],
    [4, 12, 33, 86, 216],
    [8, 28, 86, 245, 664],
    [16, 64, 216, 664, 1921],
]
S_TABLE = [
    [2, 5, 14, 42, 132],
    [4, 12, 37, 118, 387],
    [8, 28, 94, 317, 1082],
    [16, 64, 232, 824, 2921],
    [32, 144, 560, 2088, 7674],
]


def test_catalan():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    with pytest.raises(InvalidInput):
        catalan(-1)


def test_t_sequence_and_closed_form():
    assert t_sequence(5) == [1, 2, 5, 12, 28, 64]
    for n in range(2, 12):
        assert t_closed(n) == t_sequence(n)[n]
    with pytest.raises(InvalidInput):
        t_closed(1)


def test_recurrence_tables_match_frozen():
    assert u_table(4, 4) == U_TABLE
    assert v_table(4, 4) == V_TABLE
    assert s_table(4, 4) == S_TABLE


def test_series_tables_match_frozen():
    assert series_table("U", 4, 4) == U_TABLE
    assert series_table("V", 4, 4) == V_TABLE
    assert series_table("S", 4, 4) == S_TABLE


def test_recurrence_and_series_agree_beyond_frozen_range():
    assert u_table(7, 7) == series_table("U", 7, 7)
    assert v_table(7, 7) == series_table("V", 7, 7)
    assert s_table(7, 7) == series_table("S", 7, 7)


def test_boundary_rows():
    u = u_table(6, 6)
    v = v_table(6, 6)
    s = s_table(6, 6)
    for k in range(1, 7):
        assert u[0][k] == 2 ** (k - 1) and u[k][0] == 2 ** (k - 1)
        assert v[0][k] == 2 ** k and v[k][0] == 2 ** k
        assert s[0][k] == catalan(k + 2) and s[k][0] == 2 ** (k + 1)
    assert u[0][0] == 0 and v[0][0] == 1 and s[0][0] == 2


def test_one_off_line_row_embeds_in_cone_table():
    assert u_table(1, 6)[1] == t_sequence(6)


def test_brute_matches_tables_spot():
    assert count_noncrossing(standard_config("U", 2, 3)) == 37
    assert count_noncrossing(standard_config("V", 2, 2)) == 33
    assert count_noncrossing(standard_config("S", 1, 2)) == 37
    assert count_noncrossing(standard_config("T", 6)) == 144


def test_brute_table_convention_cell():
    # the table convention zeroes the empty-configuration cell; the honest
    # enumeration count there is 1
    assert brute_table("U", 1, 1)[0][0] == 0
    assert count_noncrossing(standard_config("U", 0, 0)) == 1
    assert brute_table("V", 0, 0)[0][0] == 1


def test_cross_checks_pass():
    for fam in ("U", "V", "S"):
        cc = cross_check(fam, 3, 3)
        assert cc.ok, cc.mismatches
        assert set(cc.tables) == {"recurrence", "series", "brute"}
    cc = cross_check("U", 6, 6, legs=("recurrence", "series"))
    assert cc.ok and set(cc.tables) == {"recurrence", "series"}
    tc = cross_check("T", 7)
    assert tc.ok, tc.mismatches


def test_cross_check_reports_mismatches():
    broken = CrossCheck("U", {}, [("recurrence", "series", 1, 1, 2, 3)])
    assert not broken.ok


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        cross_check("P", 2, 2)
    with pytest.raises(UnknownFamily):
        series_table("P", 2, 2)
    with pytest.raises(UnknownFamily):
        brute_table("Q", 2, 2)


def test_count_table_csv():
    csv = CountTable("U", "recurrence", [[0, 1], [1, 2]]).to_csv()
    assert csv == "m\\n,0,1\n0,0,1\n1,1,2\n"
    csv = CountTable("T", "closed", [[1, 2, 5]]).to_csv()
    assert csv == "n,0,1,2\nt,1,2,5\n"


def test_cross_check_legs():
    tc = cross_check("T", 4)
    assert list(tc.tables) == ["recurrence", "closed", "series", "brute"]
    assert tc.tables["closed"] == [[1, 2, 5, 12, 28]]
    cc = cross_check("S", 2, 2, legs=["series", "recurrence"])
    assert list(cc.tables) == ["series", "recurrence"] and cc.ok
    assert list(cross_check("V", 1, 1).tables) == ["recurrence", "series", "brute"]


def test_cross_check_rejects_bad_arguments_before_running(monkeypatch):
    import nclat.enumeration as enum_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("a leg ran before the arguments were checked")

    monkeypatch.setattr(enum_mod, "brute_table", must_not_run)
    monkeypatch.setattr(enum_mod, "brute_t_sequence", must_not_run)
    for args, kwargs in (
        (("T", -1), {"legs": ["brute"]}),
        (("U", 2, -1), {}),
        (("T", 3, 3), {}),
        (("U", 3), {}),
        (("U", 2, 2), {"legs": []}),
        (("U", 2, 2), {"legs": ["closed"]}),
        (("T", 3), {"legs": ["recurrence", "recurrence"]}),
        (("U", 2, 2), {"legs": ["brute", "closed"]}),
        (("T", 3), {"legs": ["brute", "brute"]}),
    ):
        with pytest.raises(InvalidInput):
            cross_check(*args, **kwargs)


def _x_series(coeffs, order):
    """sum of coeffs[p] x^p as a series in x alone."""
    return BivariateSeries.from_terms({(p, 0): c for p, c in enumerate(coeffs)}, order)


def test_univariate_arithmetic():
    order = 8
    one_minus = _x_series([1, -1], order)
    one_plus = _x_series([1, 1], order)
    prod = one_minus * one_plus
    assert prod == _x_series([1, 0, -1], order)
    geom = one_minus.reciprocal()
    assert geom == _x_series([1] * (order + 1), order)


def test_series_guards():
    with pytest.raises(InvalidInput):
        _x_series([2], 4).reciprocal()
    with pytest.raises(InvalidInput):
        _x_series([1], 3) * _x_series([1], 4)
    with pytest.raises(InvalidInput):
        _x_series([1, 2], 3).coefficient(9, 0)
    with pytest.raises(InvalidInput):
        BivariateSeries.from_terms({(0, 0): 1}, 3).coefficient(4, 0)


def test_bivariate_geometric():
    # 1/(1 - x - y) has coefficient C(i+j, i) at x^i y^j
    order = 9
    den = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -1, (0, 1): -1}, order)
    inv = den.reciprocal()
    for i in range(order + 1):
        for j in range(order + 1):
            assert inv.coefficient(i, j) == math.comb(i + j, i)
    assert inv * den == BivariateSeries.from_terms({(0, 0): 1}, order)


def test_reciprocal_skips_unreachable_powers():
    # 1 / (1 - x^2 - y^3): only x^(2a) y^(3b) can be nonzero, with
    # coefficient C(a + b, a)
    order = 9
    inv = BivariateSeries.from_terms({(0, 0): 1, (2, 0): -1, (0, 3): -1}, order).reciprocal()
    for i in range(order + 1):
        for j in range(order + 1):
            want = math.comb(i // 2 + j // 3, i // 2) if i % 2 == j % 3 == 0 else 0
            assert inv.coefficient(i, j) == want
    # a series in x alone keeps every other column zero
    t = series_T(order)
    assert all(not any(row[1:]) for row in t.coeffs)
    assert [row[0] for row in t.coeffs] == [1, 2, 5, 12, 28, 64, 144, 320, 704, 1536]


def test_closed_form_series_identities():
    order = 12
    den = BivariateSeries.from_terms(
        {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}, order
    )
    assert series_V(order) * den == BivariateSeries.from_terms({(0, 0): 1}, order)
    assert series_U(order) * den == BivariateSeries.from_terms(
        {(1, 0): 1, (0, 1): 1, (1, 1): -2}, order
    )
    assert series_T(order) * _x_series([1, -4, 4], order) == _x_series([1, -2, 1], order)
    s = series_S(order)
    assert [s.coefficient(0, j) for j in range(order + 1)] == [
        catalan(j + 2) for j in range(order + 1)
    ]


def test_extent_caps_admit_their_bound_and_nothing_past_it(monkeypatch):
    monkeypatch.setattr(enumeration, "_leg_rows", lambda *args: [[1]])
    for family, caps in TABLE_LEGS.items():
        for leg, limit in caps.items():
            if limit is None:
                continue
            for extents in ((limit,), (limit, 0), (0, limit), (limit, limit)):
                if (len(extents) == 1) == (family == "T"):
                    assert cross_check(family, *extents, legs=[leg]).ok
                    over = [e + (e == limit) for e in extents]
                    with pytest.raises(TooLarge):
                        cross_check(family, *over, legs=[leg])


def test_table_symmetry():
    # swapping the two arms of a cone mirrors the configuration
    u = u_table(6, 6)
    v = v_table(6, 6)
    for m in range(7):
        for n in range(7):
            assert u[m][n] == u[n][m]
            assert v[m][n] == v[n][m]


small_int = st.integers(min_value=-9, max_value=9)


@given(st.lists(small_int, min_size=1, max_size=7), st.lists(small_int, min_size=1, max_size=7))
@settings(max_examples=60, deadline=None)
def test_univariate_mul_commutes(a, b):
    order = 6
    sa = _x_series(a, order)
    sb = _x_series(b, order)
    assert sa * sb == sb * sa


@given(st.lists(small_int, min_size=0, max_size=6), st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_univariate_reciprocal_inverts(tail, lead):
    order = 6
    s = _x_series([lead] + tail, order)
    assert s * s.reciprocal() == _x_series([1], order)


power = st.integers(min_value=0, max_value=5)


@given(
    st.dictionaries(
        st.tuples(power, power).filter(any), small_int.filter(bool), max_size=6
    ),
    st.sampled_from([1, -1]),
)
@settings(max_examples=60, deadline=None)
def test_sparse_reciprocal_inverts(tail, lead):
    # the reciprocal reads only the nonzero terms: random sparse terms in
    # both variables, with terms past the order dropped by from_terms
    order = 4
    s = BivariateSeries.from_terms({(0, 0): lead, **tail}, order)
    r = s.reciprocal()
    assert s * r == r * s == BivariateSeries.from_terms({(0, 0): 1}, order)
