"""Exact counting of noncrossing partition lattices, three independent ways.

Sizes of the standard-family lattices are computed by

  * recurrences: T's own, t_n = 2 t_{n-1} + 2^(n-2) (t_sequence), and one
    removal recursion for U, V and S (_removal_table), split by the fate of
    the last stored point, which u_table, v_table and s_table feed only
    their boundary rows and their tail sizes,
  * the coefficients of closed rational generating functions, each expanded
    exactly as far as its table reaches: a reciprocal filled cell by cell,
    then multiplied by the numerator (series_T, series_U, series_V,
    series_S),
  * brute-force enumeration of the lattices themselves (brute_table and
    brute_t_sequence): the configurations of one table row are nested, each
    adding one point to the one before, so one count_noncrossing search
    over the row's largest counts every cell of it on the way.

cross_check runs the chosen legs of any of the four families side by side
and reports every cell where a leg disagrees with the first one; this is the
main guard against a silent error in any one method, and the CLI's tables
command and the acceptance criteria both go through it.

Convention: the open-cone table starts at u[0][0] = 0 even though the empty
configuration vacuously has the single empty partition.  U's row 1 reads
that cell: it makes the k = 1 term of the removal recursion, whose smaller
instance has both arms empty, contribute nothing, and so the recurrence and
the series agree.  The brute leg adopts the zero for that one cell;
count_noncrossing itself counts 1 there, the empty partition.
"""

from collections import namedtuple
import math
from operator import mul

from .errors import InvalidInput, TooLarge, UnknownFamily
from .geometry import make_configuration, point_count, standard_config
from . import partition
from .partition import _require_points, count_noncrossing


def catalan(n: int) -> int:
    if n < 0:
        raise InvalidInput("catalan numbers need n >= 0")
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# truncated integer power series
#
# A series is a grid of coefficients, grid[i][j] that of x^i y^j, truncated to
# the grid's shape; a polynomial is a {(p, q): c} dict of its terms c x^p y^q.

def _times(grid, terms):
    """grid times the polynomial terms, truncated to grid's shape."""
    rows, cols = len(grid), len(grid[0])
    out = [[0] * cols for _ in range(rows)]
    for (p, q), c in terms.items():
        for i in range(p, rows):
            src, dst = grid[i - p], out[i]
            for j in range(q, cols):
                dst[j] += c * src[j - q]
    return out


def _ratio(num, den, rows, cols):
    """num / den as a rows x cols grid, for polynomials num and den with
    den's constant term 1: den's reciprocal is filled cell by cell from the
    cells before it, then multiplied by num."""
    terms = [(p, q, c) for (p, q), c in den.items() if p or q]
    inv = [[0] * cols for _ in range(rows)]
    inv[0][0] = 1
    for i in range(rows):
        for j in range(cols):
            if i or j:
                inv[i][j] = -sum(
                    c * inv[i - p][j - q] for p, q, c in terms if p <= i and q <= j
                )
    return _times(inv, num)


# ---------------------------------------------------------------------------
# recurrence tables

def t_closed(n: int) -> int:
    """Closed form (n+3) 2^(n-2), valid from n = 2."""
    if n < 2:
        raise InvalidInput("the closed form starts at n = 2")
    return (n + 3) << (n - 2)


def t_sequence(max_n: int):
    """Lattice sizes for the one-off-line family by recurrence,
    t_n = 2 t_{n-1} + 2^(n-2) from n = 2, seeded 1, 2."""
    if max_n < 0:
        raise InvalidInput("max_n must be nonnegative")
    seq = [1, 2][: max_n + 1]
    for n in range(2, max_n + 1):
        seq.append(2 * seq[-1] + (1 << (n - 2)))
    return seq


def _removal_table(top, left, tail):
    """The removal recursion shared by U, V and S, split by the fate of the
    last stored point: it is a singleton or joins its predecessor, or its
    block reaches the k-th point of the far side first, leaving t = n-k+1
    tail points.  Row 0 is top, row m >= 1 starts with left[m-1], and
    x[m][n] = 2 x[m-1][n] + sum over k of x[m-1][k-1] tail[n-k+1], where
    tail[t] is the lattice size on the t tail points."""
    rows = [list(top)]
    for start in left:
        prev = rows[-1]
        row = [start]
        for n in range(1, len(top)):
            row.append(2 * prev[n] + sum(map(mul, prev[:n], tail[n:0:-1])))
        rows.append(row)
    return rows


def u_table(max_m: int, max_n: int):
    """Open-cone sizes by the removal recursion: collinear boundary rows
    u[0][n] = 2^(n-1) and u[m][0] = 2^(m-1), u[0][0] = 0 (see the module
    docstring), and collinear tails of 2^(t-1)."""
    _check_extents(max_m, max_n)
    top = [0] + [1 << (n - 1) for n in range(1, max_n + 1)]
    return _removal_table(top, [1 << (m - 1) for m in range(1, max_m + 1)], top)


def v_table(max_m: int, max_n: int):
    """Closed-cone sizes by the removal recursion: Boolean boundary rows
    v[0][n] = 2^n and v[m][0] = 2^m, and collinear tails of 2^(t-1)."""
    _check_extents(max_m, max_n)
    tail = [0] + [1 << (t - 1) for t in range(1, max_n + 1)]
    return _removal_table([1 << n for n in range(max_n + 1)],
                          [1 << m for m in range(1, max_m + 1)], tail)


def s_table(max_m: int, max_n: int):
    """Semicircular sizes by the removal recursion: s[0][n] = C_{n+2} (all
    points on one circle), s[m][0] = 2^(m+1) (all points on one line), and
    convex tails of C_t."""
    _check_extents(max_m, max_n)
    cat = [catalan(k) for k in range(max_n + 3)]
    return _removal_table(cat[2:], [1 << (m + 1) for m in range(1, max_m + 1)], cat)


def _check_extents(*extents):
    if any(e < 0 for e in extents):
        raise InvalidInput("table extents must be nonnegative")


def _nested_counts(cells):
    """count_noncrossing's count of each configuration in cells, by one
    search over the last one's points, placed in nesting order: cells[0]'s
    own, then the one point each later cell adds to the one before.  Raises
    InvalidInput when a cell does not add exactly one point."""
    order = list(cells[0].points)
    for prev, cell in zip(cells, cells[1:]):
        new = set(cell.points).difference(prev.points)
        if len(new) != 1 or len(cell) != len(prev) + 1:
            raise InvalidInput(f"configuration of {len(cell)} points does not add "
                               f"one point to the {len(prev)} before it")
        order += new
    sizes = count_noncrossing(make_configuration(order))
    return [sizes[len(c)] for c in cells]


def brute_table(family: str, max_m: int, max_n: int):
    """Lattice sizes by direct enumeration: one search per row, whose
    configurations (m, 0), ..., (m, max_n) each add one point, y_n, to the
    one before.

    The u[0][0] cell is reported as 0 to match the open-cone table
    convention; everywhere else the count is exactly what
    count_noncrossing returns for standard_config(family, m, n).
    """
    if family not in ("U", "V", "S"):
        raise UnknownFamily(f"brute_table handles U, V, S, got {family!r}")
    _check_extents(max_m, max_n)
    rows = [_nested_counts([standard_config(family, m, n) for n in range(max_n + 1)])
            for m in range(max_m + 1)]
    if family == "U":
        rows[0][0] = 0
    return rows


def brute_t_sequence(max_n: int):
    """T's sizes by direct enumeration, one search over T_max_n: T_n adds
    x_n to T_{n-1}."""
    _check_extents(max_n)
    return _nested_counts([standard_config("T", n) for n in range(max_n + 1)])


# ---------------------------------------------------------------------------
# series expansions of the closed forms

def series_T(max_n: int):
    """(1-x)^2 / (1-2x)^2 as its coefficients of x^0 .. x^max_n."""
    grid = _ratio({(0, 0): 1, (1, 0): -2, (2, 0): 1},
                  {(0, 0): 1, (1, 0): -4, (2, 0): 4}, max_n + 1, 1)
    return [row[0] for row in grid]


_CONE_DEN = {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}


def series_U(max_m: int, max_n: int):
    """(x + y - 2xy) / (1 - 2x - 2y + 3xy) through x^max_m y^max_n."""
    num = {(1, 0): 1, (0, 1): 1, (1, 1): -2}
    return _ratio(num, _CONE_DEN, max_m + 1, max_n + 1)


def series_V(max_m: int, max_n: int):
    """1 / (1 - 2x - 2y + 3xy) through x^max_m y^max_n."""
    return _ratio({(0, 0): 1}, _CONE_DEN, max_m + 1, max_n + 1)


def series_S(max_m: int, max_n: int):
    """Semicircular sizes through x^max_m y^max_n:
    ((C(y) - 1 - y) / y^2) / (1 - x (1 + C(y))), with C the Catalan
    generating function."""
    lead = {(0, j): catalan(j + 2) for j in range(max_n + 1)}
    den = {(0, 0): 1, (1, 0): -2}
    for j in range(1, max_n + 1):
        den[(1, j)] = -catalan(j)
    return _ratio(lead, den, max_m + 1, max_n + 1)


def series_table(family: str, max_m: int, max_n: int):
    """Coefficient grid of the family's series, shaped like the recurrence
    tables."""
    if family not in ("U", "V", "S"):
        raise UnknownFamily(f"series_table handles U, V, S, got {family!r}")
    _check_extents(max_m, max_n)
    return {"U": series_U, "V": series_V, "S": series_S}[family](max_m, max_n)


# ---------------------------------------------------------------------------
# cross-checking

# the legs each family's count table can be built by, in default order, each
# with the largest table extent it admits; brute is capped by its point count
# instead, partition.DEFAULT_ENUM_CAP.  At the caps every table takes seconds
# (2 cores, Python 3.11): S 200 200 by recurrence and series 2.7 s, T 10000
# by its three exact legs 1.8 s and 147 MB
TABLE_LEGS = {
    "T": {"recurrence": 10000, "closed": 10000, "series": 10000, "brute": None},
    "U": {"recurrence": 200, "series": 200, "brute": None},
    "V": {"recurrence": 200, "series": 200, "brute": None},
    "S": {"recurrence": 200, "series": 200, "brute": None},
}


class CountTable(namedtuple("CountTable", "family source rows")):
    __slots__ = ()

    def to_csv(self) -> str:
        """CSV with index headers.  A T table is one row indexed by n and is
        laid out as an `n,` header line and a `t,` value line."""
        if self.family == "T":
            row = self.rows[0]
            lines = [
                "n," + ",".join(str(n) for n in range(len(row))),
                "t," + ",".join(str(c) for c in row),
            ]
        else:
            width = len(self.rows[0]) if self.rows else 0
            lines = ["m\\n," + ",".join(str(n) for n in range(width))]
            for m, row in enumerate(self.rows):
                lines.append(f"{m}," + ",".join(str(c) for c in row))
        return "\n".join(lines) + "\n"


class CrossCheck(namedtuple("CrossCheck", "family tables mismatches")):
    # tables: source name -> rows;
    # mismatches: (source_a, source_b, m, n, value_a, value_b)
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _compare_tables(tables: dict):
    names = list(tables)
    base = names[0]
    mism = []
    for other in names[1:]:
        for m, (ra, rb) in enumerate(zip(tables[base], tables[other])):
            for n, (a, b) in enumerate(zip(ra, rb)):
                if a != b:
                    mism.append((base, other, m, n, a, b))
    return mism


def _leg_rows(family, leg, max_m, max_n):
    if family == "T":
        if leg == "recurrence":
            row = t_sequence(max_m)
        elif leg == "closed":
            row = t_sequence(min(1, max_m)) + [t_closed(n) for n in range(2, max_m + 1)]
        elif leg == "series":
            row = series_T(max_m)
        else:
            row = brute_t_sequence(max_m)
        return [row]
    if leg == "recurrence":
        return {"U": u_table, "V": v_table, "S": s_table}[family](max_m, max_n)
    if leg == "series":
        return series_table(family, max_m, max_n)
    return brute_table(family, max_m, max_n)


def cross_check(family: str, max_m: int, max_n: int = None, legs=None) -> CrossCheck:
    """Build the family's count table by each leg and compare every other
    leg with the first one listed.

    T takes the single extent max_m; its tables are one row indexed by n,
    and its closed form is counted from n = 2.  U, V and S take both
    extents.  legs defaults to every leg of the family (TABLE_LEGS).  All
    arguments and every requested leg's cap are checked before any leg runs:
    the brute leg's point cap, partition.DEFAULT_ENUM_CAP, then the others'
    extent caps in TABLE_LEGS.  A cap raises TooLarge.
    """
    if family not in TABLE_LEGS:
        raise UnknownFamily(f"cross_check handles T, U, V, S, got {family!r}")
    if family == "T":
        if max_n is not None:
            raise InvalidInput("family T takes a single table extent")
        _check_extents(max_m)
    else:
        if max_n is None:
            raise InvalidInput(f"family {family} takes two table extents")
        _check_extents(max_m, max_n)
    allowed = tuple(TABLE_LEGS[family])
    legs = allowed if legs is None else tuple(legs)
    if not legs:
        raise InvalidInput("no legs requested")
    for leg in legs:
        if leg not in allowed:
            raise InvalidInput(f"unknown leg {leg!r} for {family}; choose from {allowed}")
    if len(set(legs)) != len(legs):
        raise InvalidInput(f"each leg may be requested once, got {list(legs)}")
    if "brute" in legs:
        _require_points(point_count(family, max_m, max_n), partition.DEFAULT_ENUM_CAP)
    extent = max(max_m, max_n or 0)
    for leg in legs:
        limit = TABLE_LEGS[family][leg]
        if limit is not None and extent > limit:
            raise TooLarge(f"table extent is {extent}, {leg} cap is {limit}")
    tables = {leg: _leg_rows(family, leg, max_m, max_n) for leg in legs}
    return CrossCheck(family, tables, _compare_tables(tables))
