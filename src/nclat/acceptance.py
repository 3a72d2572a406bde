"""End-to-end verification suite.

Ten criteria exercise the whole package against frozen reference values and
against itself (independent counting methods, brute-force order
computations, exhaustive pairwise lattice checks).  They are the rows of one
table, CRITERIA, of (name, budget in seconds, check), numbered by position.
A check returns (ok, detail); run_criteria, the one entry point of the CLI
and the test suite, times each check and fails it if it ran past its budget,
and returns a CriterionResult per criterion.
"""

from collections import namedtuple
import time

from .enumeration import (
    _times,
    catalan,
    cross_check,
    series_S,
    series_T,
    series_U,
    series_V,
    t_sequence,
)
from .errors import InvalidInput
from .fixtures import load_builtin
from .geometry import make_configuration, point_count, standard_config
from .poset import (
    GradedInfo,
    _closures,
    _iter_bits,
    build_nc_poset,
    gradedness,
    is_rank_symmetric,
    is_self_dual,
    nc_join,
    nc_meet,
    rank_vector,
)
from .scd import (
    decomposition_parts,
    removal_class,
    scd_S,
    scd_T,
    scd_U,
    scd_V,
    standard_poset,
    symmetric_chain_profile,
    verify_scd,
)

# frozen reference counts for 0 <= m,n <= 4, row index m
U_REFERENCE = (
    (0, 1, 2, 4, 8),
    (1, 2, 5, 12, 28),
    (2, 5, 14, 37, 94),
    (4, 12, 37, 106, 289),
    (8, 28, 94, 289, 838),
)
V_REFERENCE = (
    (1, 2, 4, 8, 16),
    (2, 5, 12, 28, 64),
    (4, 12, 33, 86, 216),
    (8, 28, 86, 245, 664),
    (16, 64, 216, 664, 1921),
)
S_REFERENCE = (
    (2, 5, 14, 42, 132),
    (4, 12, 37, 118, 387),
    (8, 28, 94, 317, 1082),
    (16, 64, 232, 824, 2921),
    (32, 144, 560, 2088, 7674),
)
T_REFERENCE = (1, 2, 5, 12, 28, 64)

# instances found non-self-dual by exhaustive search over m + n <= 5
NON_SELF_DUAL = (("U", 1, 4), ("U", 2, 3), ("V", 2, 2), ("S", 1, 2))


class CriterionResult(namedtuple("CriterionResult", "number name ok detail seconds budget")):
    __slots__ = ()

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict} criterion {self.number:2d} {self.name}: "
            f"{self.detail} [{self.seconds:.2f}s / {self.budget:.0f}s]"
        )


def _check_table(family, reference):
    cc = cross_check(family, 4, 4)
    problems = list(cc.mismatches)
    if cc.tables["recurrence"] != [list(r) for r in reference]:
        problems.append(("recurrence", "reference"))
    if problems:
        return False, f"disagreements: {problems[:3]}"
    return True, "recurrence = series = brute = frozen table on 25 cells"


def _check_t_sequence():
    cc = cross_check("T", 8)
    if cc.ok and tuple(t_sequence(5)) == T_REFERENCE:
        return True, (
            "brute = recurrence = closed form = series for n <= 8, "
            f"first terms {list(T_REFERENCE)}"
        )
    return False, f"disagreements: {cc.mismatches[:3]} seq={t_sequence(5)}"


def _standard_instances():
    """All standard-family configurations of 2 to 9 points."""
    sizes = range(10)
    candidates = [(f, n, None) for n in sizes for f in "PQT"] + [
        (f, m, n) for m in sizes for n in sizes for f in "UVS"
    ]
    return [c for c in candidates if 2 <= point_count(*c) <= 9]


def _lattice_key(config):
    """Everything build_nc_poset reads of config: its point count and its
    kernel's segment, triangle and meets tables.  The enumeration decides
    every hull question from these tables alone (pair is fixed by the point
    count, and block() derives the rest), so configurations with equal keys
    have the same NC poset, element by element."""
    kernel = config.kernel
    return (
        len(config),
        tuple(map(tuple, kernel.segment)),
        tuple(kernel.triangle.items()),
        tuple(kernel.meets),
    )


def _host(config):
    """(index of each point, kernel) of config, read once per host."""
    return {p: i for i, p in enumerate(config.points)}, config.kernel


def _is_interval(config, host):
    """Whether every point of config is a point of host, given by _host,
    and host has no other point in their hull.  Then pi -> pi plus
    singletons maps NC(config) onto the principal ideal of NC(host) below
    {config's points, singletons}, rank for rank and cover for cover, so a
    graded NC(host) makes NC(config) graded: an interval of a graded poset
    is graded."""
    where, kernel = host
    mask = 0
    for p in config.points:
        if p not in where:
            return False
        mask |= 1 << where[p]
    return kernel.block(mask)[0] == mask


def _standard_verdicts(instances):
    """(x, GradedInfo of NC of instances[x]) for every x, largest
    configurations first.  A host is an instance found graded by a build,
    by its key or by reversal.  An interval of a host is graded.  An
    inherited verdict makes no host: an interval of an interval of a host
    is an interval of that host.  Otherwise equal keys share the poset, so
    the verdict and its witness, and when the points read in reverse order
    have an earlier configuration's key, the poset is that one with point i
    renamed n - 1 - i, which keeps every rank, so a graded verdict carries
    over.  Every other instance is built, so that an ungraded verdict's
    witness names the configuration's own partitions."""
    configs = [standard_config(*c) for c in instances]
    verdicts = {}
    hosts = []
    for x in sorted(range(len(configs)), key=lambda x: -len(configs[x])):
        cfg = configs[x]
        if any(_is_interval(cfg, host) for host in hosts):
            info = GradedInfo(True, None)
        else:
            key = _lattice_key(cfg)
            if key not in verdicts:
                info = verdicts.get(_lattice_key(make_configuration(cfg.points[::-1])))
                if info is None or not info.is_graded:
                    info = gradedness(build_nc_poset(cfg))
                verdicts[key] = info
            info = verdicts[key]
            if info.is_graded:
                hosts.append(_host(cfg))
        yield x, info


def _check_gradedness():
    # only the lattices no graded host holds as an interval are built, and
    # each keeps its verdict, not the poset; bad lists the instances in
    # their own order, not in the order they were decided
    instances = _standard_instances()
    bad = [(*instances[x], info.witness)
           for x, info in sorted(_standard_verdicts(instances)) if not info.is_graded]
    hexa = build_nc_poset(load_builtin("hexagon6"))
    mid = build_nc_poset(load_builtin("triangle-midpoints"))
    pin = build_nc_poset(load_builtin("triangle-pinwheel"))
    fixture_checks = [
        ("hexagon6 graded", gradedness(hexa).is_graded),
        ("hexagon6 rank-symmetric", is_rank_symmetric(hexa)),
        ("triangle-midpoints graded", gradedness(mid).is_graded),
        ("triangle-midpoints not rank-symmetric", not is_rank_symmetric(mid)),
        ("triangle-pinwheel not graded", not gradedness(pin).is_graded),
    ]
    failed_fixture = [name for name, ok in fixture_checks if not ok]
    if bad or failed_fixture:
        return False, (
            f"ungraded standard instances: {bad[:3]}; "
            f"fixture failures: {failed_fixture}"
        )
    return True, (
        f"{len(instances)} standard configurations graded; fixtures behave as recorded"
    )


def _scd_instances():
    out = [(("T", n, None), scd_T(n)) for n in range(6)]
    for m in range(4):
        for n in range(4):
            out.append((("U", m, n), scd_U(m, n)))
            out.append((("V", m, n), scd_V(m, n)))
            out.append((("S", m, n), scd_S(m, n)))
    return out


def _check_chains():
    bad = []
    for (fam, m, n), chains in _scd_instances():
        poset = standard_poset(fam, m, n)
        res = verify_scd(poset, chains)
        if not res.ok:
            bad.append((fam, m, n, res.reason))
            continue
        rv = rank_vector(poset)
        if list(rv) != list(reversed(rv)):
            bad.append((fam, m, n, f"rank vector {rv} not palindromic"))
            continue
        if res.lengths != symmetric_chain_profile(rv):
            bad.append((fam, m, n, "chain lengths do not match the rank profile"))
    if bad:
        return False, f"failures: {bad[:3]}"
    return True, (
        "54 decompositions verified: disjoint, covering, saturated, centered; "
        "all rank vectors palindromic"
    )


def _check_decompositions():
    instances = [("T", n, None) for n in range(2, 6)]
    instances += [("U", m, n) for m in (2, 3) for n in (1, 2, 3)]
    instances += [("V", m, n) for m in (2, 3) for n in (1, 2, 3)]
    instances += [("S", m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    bad = []
    for fam, m, n in instances:
        dec = decomposition_parts(fam, m, n)
        host = dec.poset
        total = len(host.elements)
        seen = set()
        for part in dec.parts:
            seen.update(part.host_indices)
            names = {
                removal_class(host.elements[i], dec.prefix_count)
                for i in part.host_indices
            }
            if names != {part.name}:
                bad.append((fam, m, n, part.name, "classification mismatch"))
                continue
            # the part's own map, model element i to host element
            # host_indices[i], is an order isomorphism onto the part iff it
            # carries each model up-set onto the host up-set cut to the part
            idx = part.host_indices
            keep = sum(1 << h for h in idx)
            for i, h in enumerate(idx):
                image = sum(1 << idx[j] for j in _iter_bits(part.model.up_mask(i)))
                if host.up_mask(h) & keep != image:
                    bad.append((fam, m, n, part.name, "factor structure mismatch"))
                    break
        if len(seen) != total or sum(len(p.host_indices) for p in dec.parts) != total:
            bad.append((fam, m, n, "-", "parts do not partition the lattice"))
    if bad:
        return False, f"failures: {bad[:3]}"
    return True, (
        f"{len(instances)} removal decompositions: parts partition each lattice "
        "and match their product models element-by-element"
    )


def _check_series():
    order = 12

    def grid(terms, cols=order + 1):
        return [[terms.get((i, j), 0) for j in range(cols)] for i in range(order + 1)]

    den = {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}
    num_u = {(1, 0): 1, (0, 1): 1, (1, 1): -2}
    t_col = [[c] for c in series_T(order)]
    checks = [
        ("V series times denominator is 1",
         _times(series_V(order, order), den) == grid({(0, 0): 1})),
        ("U series times denominator is x+y-2xy",
         _times(series_U(order, order), den) == grid(num_u)),
        (
            "T series times (1-2x)^2 is (1-x)^2",
            _times(t_col, {(0, 0): 1, (1, 0): -4, (2, 0): 4})
            == grid({(0, 0): 1, (1, 0): -2, (2, 0): 1}, 1),
        ),
        (
            "S series row m=0 is the shifted Catalan numbers",
            series_S(0, order)[0] == [catalan(j + 2) for j in range(order + 1)],
        ),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        return False, f"failed: {failed}"
    return True, "all four identities hold through order 12"


def _axiom_check(cfg, poset):
    # poset is NC(cfg); nc_meet and nc_join are checked against it
    els = poset.elements
    size = len(els)
    up = [poset.up_mask(i) | 1 << i for i in range(size)]
    down = _closures(poset.cover_lists()[1], poset.linear_extension(), lambda i: 1 << i)
    meet_t = [[0] * size for _ in range(size)]
    join_t = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            lows = down[i] & down[j]
            highs = up[i] & up[j]
            # brute force: the meet's principal down-set must equal the
            # intersection, and dually for the join
            mi = max(_iter_bits(lows), key=lambda k: down[k].bit_count())
            ji = max(_iter_bits(highs), key=lambda k: up[k].bit_count())
            if down[mi] != lows or up[ji] != highs:
                return False, f"bounds of pair ({i}, {j}) are not unique"
            if highs & ~up[ji]:
                return False, f"join of ({i}, {j}) is not below some upper bound"
            got_meet = nc_meet(cfg, els[i], els[j])
            got_join = nc_join(cfg, els[i], els[j])
            if poset.index(got_meet) != mi or poset.index(got_join) != ji:
                return False, f"nc_meet/nc_join disagree with brute force on ({i}, {j})"
            if (
                poset.index(nc_meet(cfg, els[j], els[i])) != mi
                or poset.index(nc_join(cfg, els[j], els[i])) != ji
            ):
                return False, f"commutativity fails on ({i}, {j})"
            meet_t[i][j] = meet_t[j][i] = mi
            join_t[i][j] = join_t[j][i] = ji
    for i in range(size):
        for j in range(size):
            if meet_t[i][join_t[i][j]] != i or join_t[i][meet_t[i][j]] != i:
                return False, f"absorption fails on ({i}, {j})"
            for k in range(size):
                if meet_t[meet_t[i][j]][k] != meet_t[i][meet_t[j][k]]:
                    return False, f"meet associativity fails on ({i}, {j}, {k})"
                if join_t[join_t[i][j]][k] != join_t[i][join_t[j][k]]:
                    return False, f"join associativity fails on ({i}, {j}, {k})"
    return True, size


def _check_lattice_axioms():
    details = []
    ok = True
    for fam, m, n, expect in (("S", 1, 2, 37), ("V", 2, 2, 33)):
        cfg = standard_config(fam, m, n)
        good, info = _axiom_check(cfg, standard_poset(fam, m, n))
        if not good:
            ok = False
            details.append(f"{fam}({m},{n}): {info}")
        elif info != expect:
            ok = False
            details.append(f"{fam}({m},{n}): size {info} != {expect}")
        else:
            details.append(f"{fam}({m},{n}): {info} elements, all axioms hold")
    return ok, "; ".join(details)


def _check_self_duality():
    bad = [
        (fam, n)
        for n in range(1, 6)
        for fam in ("P", "Q")
        if not is_self_dual(standard_poset(fam, n))
    ]
    failures = [
        f"{fam}({m},{n})"
        for fam, m, n in NON_SELF_DUAL
        if not is_self_dual(standard_poset(fam, m, n))
    ]
    if bad or len(failures) != len(NON_SELF_DUAL):
        return False, (
            f"unexpectedly non-self-dual: {bad}; failing instances found: {failures}"
        )
    return True, (
        f"collinear and cyclic lattices self-dual for n <= 5; "
        f"non-self-dual instances with m+n <= 5: {', '.join(failures)}"
    )


# (name, time budget in seconds, check), criterion i + 1 at position i
CRITERIA = (
    ("tables-U", 10.0, lambda: _check_table("U", U_REFERENCE)),
    ("tables-V", 30.0, lambda: _check_table("V", V_REFERENCE)),
    ("tables-S", 120.0, lambda: _check_table("S", S_REFERENCE)),
    ("tables-T", 30.0, _check_t_sequence),
    ("gradedness", 60.0, _check_gradedness),
    ("symmetric-chains", 120.0, _check_chains),
    ("decompositions", 120.0, _check_decompositions),
    ("series-identities", 30.0, _check_series),
    ("lattice-axioms", 30.0, _check_lattice_axioms),
    ("self-duality", 120.0, _check_self_duality),
)


def _resolve_only(only):
    wanted = set()
    for item in only:
        token = str(item).strip()
        if not token:
            continue
        if token.isdigit():
            num = int(token)
            if not 1 <= num <= len(CRITERIA):
                raise InvalidInput(f"no criterion number {num}")
            wanted.add(num)
            continue
        hits = [
            number
            for number, (name, _, _) in enumerate(CRITERIA, start=1)
            if name.startswith(token)
        ]
        if not hits:
            raise InvalidInput(f"no criterion matches {token!r}")
        wanted.update(hits)
    if not wanted:
        raise InvalidInput("empty criterion selection")
    return wanted


def run_criteria(only=None):
    """Run all criteria, or the subset selected by `only`, a list of
    criterion numbers or name prefixes (so "tables" selects 1 through 4).
    A criterion whose check passes but runs past its budget fails."""
    wanted = _resolve_only(only) if only is not None else None
    results = []
    for number, (name, budget, check) in enumerate(CRITERIA, start=1):
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        ok, detail = check()
        secs = time.perf_counter() - t0
        if ok and secs > budget:
            ok = False
            detail += f"; exceeded {budget:.0f}s budget"
        results.append(CriterionResult(number, name, bool(ok), detail, secs, budget))
    return results
