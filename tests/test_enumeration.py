"""Counting legs: recurrences, series, brute force, and cross-checks."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclat import enumeration
from nclat.enumeration import (
    TABLE_LEGS,
    CountTable,
    CrossCheck,
    _nested_counts,
    _ratio,
    _times,
    brute_t_sequence,
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
    assert u_table(30, 30) == series_table("U", 30, 30)
    assert v_table(30, 30) == series_table("V", 30, 30)
    assert s_table(30, 30) == series_table("S", 30, 30)


def test_closed_cone_splits_at_its_apex():
    # the apex is a singleton or joins the first point of either arm, or of
    # both: v[m][n] = u[m][n] + v[m-1][n] + v[m][n-1] - v[m-1][n-1], an
    # identity between two tables each built by its own boundary rows
    u, v = u_table(30, 30), v_table(30, 30)
    for m in range(1, 31):
        for n in range(1, 31):
            assert v[m][n] == u[m][n] + v[m - 1][n] + v[m][n - 1] - v[m - 1][n - 1]


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
    assert count_noncrossing(standard_config("U", 2, 3))[-1] == 37
    assert count_noncrossing(standard_config("V", 2, 2))[-1] == 33
    assert count_noncrossing(standard_config("S", 1, 2))[-1] == 37
    assert count_noncrossing(standard_config("T", 6))[-1] == 144


def test_brute_table_convention_cell():
    # the table convention zeroes the empty-configuration cell; the honest
    # enumeration count there is 1
    assert brute_table("U", 1, 1)[0][0] == 0
    assert count_noncrossing(standard_config("U", 0, 0))[-1] == 1
    assert brute_table("V", 0, 0)[0][0] == 1


def test_brute_rows_match_their_cells_counted_one_by_one():
    # one search per row reads each cell as a prefix of the row's points;
    # counting each configuration alone gives the same table
    for fam in ("U", "V", "S"):
        cells = [[count_noncrossing(standard_config(fam, m, n))[-1] for n in range(5)]
                 for m in range(5)]
        if fam == "U":
            cells[0][0] = 0
        assert brute_table(fam, 4, 4) == cells, fam
    assert brute_t_sequence(8) == [count_noncrossing(standard_config("T", n))[-1]
                                   for n in range(9)]


def test_nesting_check_refuses_cells_that_do_not_add_one_point():
    # Q_3 adds two points to P_2 and drops one; P_2 twice adds none; T_1
    # shares P_2's size; P_4 adds two points to T_2 and drops its apex
    for cells in (("P", 2, "Q", 3), ("P", 2, "P", 2), ("P", 2, "T", 1), ("T", 2, "P", 4)):
        configs = [standard_config(*cells[:2]), standard_config(*cells[2:])]
        with pytest.raises(InvalidInput, match="does not add one point"):
            _nested_counts(configs)
    assert _nested_counts([standard_config("P", 2), standard_config("T", 2)]) == [2, 5]


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


def _grid(terms, rows, cols):
    """the polynomial terms, {(p, q): c}, as a rows x cols coefficient grid."""
    return [[terms.get((i, j), 0) for j in range(cols)] for i in range(rows)]


def _x_terms(coeffs):
    """sum of coeffs[p] x^p as the terms of a polynomial in x alone."""
    return {(p, 0): c for p, c in enumerate(coeffs)}


def test_univariate_arithmetic():
    rows = 9
    one_minus = _x_terms([1, -1])
    prod = _times(_grid(one_minus, rows, 1), _x_terms([1, 1]))
    assert prod == _grid(_x_terms([1, 0, -1]), rows, 1)
    geom = _ratio({(0, 0): 1}, one_minus, rows, 1)
    assert geom == [[1]] * rows


def test_bivariate_geometric():
    # 1/(1 - x - y) has coefficient C(i+j, i) at x^i y^j
    rows, cols = 10, 7
    den = {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    inv = _ratio({(0, 0): 1}, den, rows, cols)
    assert inv == [[math.comb(i + j, i) for j in range(cols)] for i in range(rows)]
    assert _times(inv, den) == _grid({(0, 0): 1}, rows, cols)


def test_reciprocal_skips_unreachable_powers():
    # 1 / (1 - x^2 - y^3): only x^(2a) y^(3b) can be nonzero, with
    # coefficient C(a + b, a)
    rows, cols = 10, 10
    inv = _ratio({(0, 0): 1}, {(0, 0): 1, (2, 0): -1, (0, 3): -1}, rows, cols)
    for i in range(rows):
        for j in range(cols):
            want = math.comb(i // 2 + j // 3, i // 2) if i % 2 == j % 3 == 0 else 0
            assert inv[i][j] == want
    # T's series is one column, read as one row
    assert series_T(9) == [1, 2, 5, 12, 28, 64, 144, 320, 704, 1536]


def test_closed_form_series_identities():
    order = 12
    size = order + 1
    den = {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}
    assert _times(series_V(order, order), den) == _grid({(0, 0): 1}, size, size)
    assert _times(series_U(order, order), den) == _grid(
        {(1, 0): 1, (0, 1): 1, (1, 1): -2}, size, size
    )
    t_col = [[c] for c in series_T(order)]
    assert _times(t_col, _x_terms([1, -4, 4])) == _grid(_x_terms([1, -2, 1]), size, 1)
    assert series_S(0, order) == [[catalan(j + 2) for j in range(size)]]
    # each series is exactly the table asked for, shaped like the recurrence
    assert series_U(3, 9) == u_table(3, 9) and series_V(9, 0) == v_table(9, 0)
    assert series_S(2, 7) == s_table(2, 7)


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


def test_t_legs_agree_at_the_extent_cap():
    assert cross_check("T", 10000, legs=["recurrence", "closed", "series"]).ok


def test_t_series_is_one_column():
    # a square grid for T 2000 held over 100 MB; its one column holds
    # about 1 MB
    tracemalloc.start()
    try:
        series_T(2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


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
    rows = 7
    ta, tb = _x_terms(a), _x_terms(b)
    assert _times(_grid(ta, rows, 1), tb) == _times(_grid(tb, rows, 1), ta)


@given(st.lists(small_int, min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_univariate_reciprocal_inverts(tail):
    rows = 7
    den = _x_terms([1] + tail)
    assert _times(_ratio({(0, 0): 1}, den, rows, 1), den) == _grid({(0, 0): 1}, rows, 1)


power = st.integers(min_value=0, max_value=5)


@given(
    st.dictionaries(
        st.tuples(power, power).filter(any), small_int.filter(bool), max_size=6
    ),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_sparse_reciprocal_inverts(tail, rows, cols):
    # the reciprocal reads only the nonzero terms: random sparse terms in
    # both variables, some past the grid's shape, which truncation drops
    den = {(0, 0): 1, **tail}
    inv = _ratio({(0, 0): 1}, den, rows, cols)
    assert _times(inv, den) == _grid({(0, 0): 1}, rows, cols)
