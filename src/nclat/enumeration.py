"""Exact counting of noncrossing partition lattices, three independent ways.

Sizes of the standard-family lattices are computed by

  * recurrences with explicit boundary rows (t_sequence, u_table, v_table,
    s_table),
  * truncated power series with integer coefficients expanded from closed
    rational forms (series_T, series_U, series_V, series_S),
  * brute-force enumeration of the lattices themselves (brute_table).

cross_check runs the chosen legs of any of the four families side by side
and reports every cell where a leg disagrees with the first one; this is the
main guard against a silent error in any one method, and the CLI's tables
command and the acceptance criteria both go through it.

Convention: the open-cone table starts at u[0][0] = 0 even though the empty
configuration vacuously has the single empty partition.  The zero makes the
recurrence and the series agree (the k = 1 term of the recursion must
contribute nothing when both arms are empty), so the brute leg adopts it for
that one cell.  count_noncrossing itself reports 1 there.
"""

from collections import namedtuple
import math

from .errors import InvalidInput, UnknownFamily
from .geometry import standard_config
from .partition import DEFAULT_ENUM_CAP, count_noncrossing


def catalan(n: int) -> int:
    if n < 0:
        raise InvalidInput("catalan numbers need n >= 0")
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# truncated integer power series

class BivariateSeries:
    """Integer power series in x and y, truncated at order in each variable.

    coeffs[i][j] is the coefficient of x^i y^j.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        """A series over coeffs, an (order+1)^2 grid of ints, used as it is."""
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_terms(cls, terms: dict, order: int) -> "BivariateSeries":
        if order < 0:
            raise InvalidInput("series order must be nonnegative")
        s = cls([[0] * (order + 1) for _ in range(order + 1)], order)
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise InvalidInput("powers must be nonnegative")
            if i <= order and j <= order:
                s.coeffs[i][j] = c
        return s

    def coefficient(self, i: int, j: int) -> int:
        if not (0 <= i <= self.order and 0 <= j <= self.order):
            raise InvalidInput(f"power ({i}, {j}) outside truncation order {self.order}")
        return self.coeffs[i][j]

    def _match(self, other):
        if not isinstance(other, BivariateSeries):
            raise InvalidInput("expected a BivariateSeries")
        if other.order != self.order:
            raise InvalidInput("series orders differ")
        return other

    def _rows(self):
        """The nonzero terms, as (p, [(q, c), ...]) by ascending p and q.
        Only the columns holding a term anywhere are read, so a series in x
        alone reads one cell per row."""
        cols = [q for q, col in enumerate(zip(*self.coeffs)) if any(col)]
        return [
            (p, [(q, row[q]) for q in cols if row[q]])
            for p, row in enumerate(self.coeffs)
            if any(row)
        ]

    def __mul__(self, other):
        other = self._match(other)
        d = self.order
        rows = other._rows()
        out = [[0] * (d + 1) for _ in range(d + 1)]
        for i, mine in self._rows():
            for j, a in mine:
                for p, terms in rows:
                    if i + p > d:
                        break
                    dst = out[i + p]
                    for q, c in terms:
                        if j + q > d:
                            break
                        dst[j + q] += a * c
        return BivariateSeries(out, d)

    def reciprocal(self) -> "BivariateSeries":
        a00 = self.coeffs[0][0]
        if a00 not in (1, -1):
            raise InvalidInput("reciprocal needs constant term 1 or -1")
        d = self.order
        # each cell reads only the nonzero non-constant terms, and only the
        # cells whose powers are sums of the terms' powers can be nonzero:
        # for a series in x alone, column 0
        terms = [(p, q, c) for p, row in self._rows() for q, c in row if p or q]

        def reachable(steps):
            got = [True] + [False] * d
            for k in range(1, d + 1):
                got[k] = any(s and s <= k and got[k - s] for s in steps)
            return [k for k in range(d + 1) if got[k]]

        rows = reachable({p for p, _, _ in terms})
        cols = reachable({q for _, q, _ in terms})
        out = [[0] * (d + 1) for _ in range(d + 1)]
        out[0][0] = a00
        for i in rows:
            for j in cols:
                if i or j:
                    out[i][j] = -a00 * sum(
                        c * out[i - p][j - q] for p, q, c in terms if p <= i and q <= j
                    )
        return BivariateSeries(out, d)

    def __eq__(self, other):
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"BivariateSeries(order={self.order})"


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


def u_table(max_m: int, max_n: int):
    """Open-cone sizes by recurrence.

    Boundary rows: u[0][0] = 0 (see the module docstring), u[0][n] and
    u[m][0] are the collinear counts 2^(n-1) and 2^(m-1), and row m = 1 is
    the one-off-line sequence.  From m = 2 the removal recursion applies:
    u[m][n] = 2 u[m-1][n] + sum over k of u[m-1][k-1] 2^(n-k).
    """
    _check_extents(max_m, max_n)
    u = [[0] * (max_n + 1) for _ in range(max_m + 1)]
    for n in range(1, max_n + 1):
        u[0][n] = 1 << (n - 1)
    if max_m >= 1:
        trow = t_sequence(max_n)
        for n in range(max_n + 1):
            u[1][n] = trow[n]
        u[1][0] = 1
    for m in range(2, max_m + 1):
        u[m][0] = 1 << (m - 1)
        for n in range(1, max_n + 1):
            acc = 2 * u[m - 1][n]
            for k in range(1, n + 1):
                acc += u[m - 1][k - 1] << (n - k)
            u[m][n] = acc
    return u


def v_table(max_m: int, max_n: int):
    """Closed-cone sizes by recurrence.

    The corner point is a singleton or joins the first point of either arm
    (or both), giving v[m][n] = u[m][n] + v[m-1][n] + v[m][n-1] - v[m-1][n-1]
    for m, n >= 1, with Boolean boundary rows v[0][n] = 2^n, v[m][0] = 2^m.
    """
    _check_extents(max_m, max_n)
    u = u_table(max_m, max_n)
    v = [[0] * (max_n + 1) for _ in range(max_m + 1)]
    for n in range(max_n + 1):
        v[0][n] = 1 << n
    for m in range(1, max_m + 1):
        v[m][0] = 1 << m
        for n in range(1, max_n + 1):
            v[m][n] = u[m][n] + v[m - 1][n] + v[m][n - 1] - v[m - 1][n - 1]
    return v


def s_table(max_m: int, max_n: int):
    """Semicircular sizes by recurrence.

    s[m][n] = 2 s[m-1][n] + sum over k of s[m-1][k-1] C_{n-k+1} for
    m, n >= 1, with s[0][n] = C_{n+2} (all points on one circle) and
    s[m][0] = 2^(m+1) (all points on one line).
    """
    _check_extents(max_m, max_n)
    s = [[0] * (max_n + 1) for _ in range(max_m + 1)]
    for n in range(max_n + 1):
        s[0][n] = catalan(n + 2)
    for m in range(1, max_m + 1):
        s[m][0] = 1 << (m + 1)
        for n in range(1, max_n + 1):
            acc = 2 * s[m - 1][n]
            for k in range(1, n + 1):
                acc += s[m - 1][k - 1] * catalan(n - k + 1)
            s[m][n] = acc
    return s


def _check_extents(*extents):
    if any(e < 0 for e in extents):
        raise InvalidInput("table extents must be nonnegative")


def brute_table(family: str, max_m: int, max_n: int, cap: int = DEFAULT_ENUM_CAP):
    """Lattice sizes by direct enumeration of each configuration.

    The u[0][0] cell is reported as 0 to match the open-cone table
    convention; everywhere else the count is exactly what
    count_noncrossing returns.
    """
    if family not in ("U", "V", "S"):
        raise UnknownFamily(f"brute_table handles U, V, S, got {family!r}")
    _check_extents(max_m, max_n)
    rows = []
    for m in range(max_m + 1):
        row = []
        for n in range(max_n + 1):
            if family == "U" and m == 0 and n == 0:
                row.append(0)
                continue
            row.append(count_noncrossing(standard_config(family, m, n), cap=cap))
        rows.append(row)
    return rows


def brute_t_sequence(max_n: int, cap: int = DEFAULT_ENUM_CAP):
    return [
        count_noncrossing(standard_config("T", n), cap=cap)
        for n in range(max_n + 1)
    ]


# ---------------------------------------------------------------------------
# series expansions of the closed forms

def series_T(order: int) -> BivariateSeries:
    """(1-x)^2 / (1-2x)^2 as a truncated series in x alone."""
    num = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -2, (2, 0): 1}, order)
    den = BivariateSeries.from_terms({(0, 0): 1, (1, 0): -4, (2, 0): 4}, order)
    return num * den.reciprocal()


def _cone_denominator(order: int) -> BivariateSeries:
    return BivariateSeries.from_terms(
        {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}, order
    )


def series_U(order: int) -> BivariateSeries:
    """(x + y - 2xy) / (1 - 2x - 2y + 3xy) as a truncated series."""
    num = BivariateSeries.from_terms({(1, 0): 1, (0, 1): 1, (1, 1): -2}, order)
    return num * _cone_denominator(order).reciprocal()


def series_V(order: int) -> BivariateSeries:
    """1 / (1 - 2x - 2y + 3xy) as a truncated series."""
    return _cone_denominator(order).reciprocal()


def series_S(order: int) -> BivariateSeries:
    """Semicircular sizes: ((C(y) - 1 - y) / y^2) / (1 - x (1 + C(y))),
    with C the Catalan generating function."""
    lead = BivariateSeries.from_terms(
        {(0, j): catalan(j + 2) for j in range(order + 1)}, order
    )
    terms = {(0, 0): 1, (1, 0): -2}
    for j in range(1, order + 1):
        terms[(1, j)] = -catalan(j)
    den = BivariateSeries.from_terms(terms, order)
    return lead * den.reciprocal()


def series_table(family: str, max_m: int, max_n: int):
    """Coefficient grid of the family's series, shaped like the recurrence
    tables."""
    if family not in ("U", "V", "S"):
        raise UnknownFamily(f"series_table handles U, V, S, got {family!r}")
    _check_extents(max_m, max_n)
    ser = {"U": series_U, "V": series_V, "S": series_S}[family](max(max_m, max_n))
    return [
        [ser.coefficient(m, n) for n in range(max_n + 1)]
        for m in range(max_m + 1)
    ]


# ---------------------------------------------------------------------------
# cross-checking

# the legs each family's count table can be built by, in default order
TABLE_LEGS = {
    "T": ("recurrence", "closed", "series", "brute"),
    "U": ("recurrence", "series", "brute"),
    "V": ("recurrence", "series", "brute"),
    "S": ("recurrence", "series", "brute"),
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


def _leg_rows(family, leg, max_m, max_n, cap):
    if family == "T":
        if leg == "recurrence":
            row = t_sequence(max_m)
        elif leg == "closed":
            row = t_sequence(min(1, max_m)) + [t_closed(n) for n in range(2, max_m + 1)]
        elif leg == "series":
            ser = series_T(max_m)
            row = [ser.coefficient(n, 0) for n in range(max_m + 1)]
        else:
            row = brute_t_sequence(max_m, cap=cap)
        return [row]
    if leg == "recurrence":
        return {"U": u_table, "V": v_table, "S": s_table}[family](max_m, max_n)
    if leg == "series":
        return series_table(family, max_m, max_n)
    return brute_table(family, max_m, max_n, cap=cap)


def cross_check(
    family: str,
    max_m: int,
    max_n: int = None,
    legs=None,
    cap: int = DEFAULT_ENUM_CAP,
) -> CrossCheck:
    """Build the family's count table by each leg and compare every other
    leg with the first one listed.

    T takes the single extent max_m; its tables are one row indexed by n,
    and its closed form is counted from n = 2.  U, V and S take both
    extents.  legs defaults to every leg of the family (TABLE_LEGS).  All
    arguments are checked before any leg runs.
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
    allowed = TABLE_LEGS[family]
    legs = allowed if legs is None else tuple(legs)
    if not legs:
        raise InvalidInput("no legs requested")
    for leg in legs:
        if leg not in allowed:
            raise InvalidInput(f"unknown leg {leg!r} for {family}; choose from {allowed}")
    if len(set(legs)) != len(legs):
        raise InvalidInput(f"each leg may be requested once, got {list(legs)}")
    tables = {leg: _leg_rows(family, leg, max_m, max_n, cap) for leg in legs}
    return CrossCheck(family, tables, _compare_tables(tables))
