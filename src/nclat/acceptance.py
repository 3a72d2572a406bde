"""End-to-end verification suite.

Ten numbered criteria exercise the whole package against frozen reference
values and against itself (independent counting methods, brute-force order
computations, exhaustive pairwise lattice checks).  Each criterion returns a
CriterionResult with a pass flag, a one-line detail string, and its runtime;
the stated time budget is part of the pass condition.  The CLI and the test
suite both run these through run_criteria.

Criterion 5 spreads its standard configurations over forked worker
processes, one per usable CPU (the CPUs this process may run on), with no
option to set; on one CPU, or where fork is unavailable, it runs them in
this process.
"""

from dataclasses import dataclass
import os
import signal
import time

from .enumeration import (
    BivariateSeries,
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
from .geometry import standard_config
from .poset import (
    _iter_bits,
    build_nc_poset,
    gradedness,
    is_isomorphism,
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


@dataclass
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float
    budget: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{verdict} criterion {self.number:2d} {self.name}: "
            f"{self.detail} [{self.seconds:.2f}s / {self.budget:.0f}s]"
        )


def _finish(number, name, content_ok, detail, t0, budget):
    secs = time.perf_counter() - t0
    ok = bool(content_ok) and secs <= budget
    if content_ok and not ok:
        detail += f"; exceeded {budget:.0f}s budget"
    return CriterionResult(number, name, ok, detail, secs, budget)


# blocked from each fork until the worker has replaced the handlers it
# inherits, so a pool stopped while it starts prints nothing
_STOP_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def _worker_init():
    # let the pool's SIGTERM end the worker, and leave an interrupt to the
    # parent, which terminates the pool
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map(fn, items):
    """[fn(x) for x in items], in input order, computed by a pool of forked
    workers, one per usable CPU but no more than there are items.  Runs in
    this process when fewer than two CPUs are usable, there are fewer than
    two items, or the platform cannot fork.  fn must be a module-level
    function; a worker's exception is raised here."""
    items = list(items)
    procs = min(_usable_cpus(), len(items))
    if procs < 2:
        return [fn(x) for x in items]
    # imported here: at module level it would slow every CLI command
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    pool = None
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
    try:
        pool = ctx.Pool(procs, initializer=_worker_init)
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        out = pool.map(fn, items, chunksize=1)
    except BaseException:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        if pool is not None:
            pool.terminate()
            pool.join()
        raise
    pool.close()
    pool.join()
    return out


def _table_criterion(number, family, reference, budget):
    t0 = time.perf_counter()
    cc = cross_check(family, 4, 4)
    ref_rows = [list(r) for r in reference]
    problems = list(cc.mismatches)
    if cc.tables["recurrence"] != ref_rows:
        problems.append(("recurrence", "reference"))
    detail = (
        "recurrence = series = brute = frozen table on 25 cells"
        if not problems
        else f"disagreements: {problems[:3]}"
    )
    return _finish(number, f"tables-{family}", not problems, detail, t0, budget)


def criterion_1():
    return _table_criterion(1, "U", U_REFERENCE, 10.0)


def criterion_2():
    return _table_criterion(2, "V", V_REFERENCE, 30.0)


def criterion_3():
    return _table_criterion(3, "S", S_REFERENCE, 120.0)


def criterion_4():
    t0 = time.perf_counter()
    cc = cross_check("T", 8)
    ok = cc.ok and tuple(t_sequence(5)) == T_REFERENCE
    detail = (
        "brute = recurrence = closed form = series for n <= 8, "
        f"first terms {list(T_REFERENCE)}"
        if ok
        else f"disagreements: {cc.mismatches[:3]} seq={t_sequence(5)}"
    )
    return _finish(4, "tables-T", ok, detail, t0, 30.0)


def _standard_instances(min_pts=2, max_pts=9):
    """All standard-family configurations with a point total in range."""
    out = []
    for n in range(max_pts + 1):
        if min_pts <= n <= max_pts:
            out.append(("P", n, None))
            out.append(("Q", n, None))
        if min_pts <= n + 1 <= max_pts:
            out.append(("T", n, None))
    for m in range(max_pts + 1):
        for n in range(max_pts + 1):
            if min_pts <= m + n <= max_pts:
                out.append(("U", m, n))
            if min_pts <= m + n + 1 <= max_pts:
                out.append(("V", m, n))
            if min_pts <= m + n + 2 <= max_pts:
                out.append(("S", m, n))
    return out


def _graded_instance(instance):
    fam, m, n = instance
    cfg = standard_config(fam, m) if n is None else standard_config(fam, m, n)
    info = gradedness(build_nc_poset(cfg))
    return info.is_graded, info.witness


def criterion_5():
    t0 = time.perf_counter()
    instances = _standard_instances()
    bad = [
        (fam, m, n, witness)
        for (fam, m, n), (graded, witness) in zip(
            instances, _map(_graded_instance, instances)
        )
        if not graded
    ]
    fixture_checks = []
    hexa = build_nc_poset(load_builtin("hexagon6"))
    fixture_checks.append(("hexagon6 graded", gradedness(hexa).is_graded))
    fixture_checks.append(("hexagon6 rank-symmetric", is_rank_symmetric(hexa)))
    mid = build_nc_poset(load_builtin("triangle-midpoints"))
    fixture_checks.append(("triangle-midpoints graded", gradedness(mid).is_graded))
    fixture_checks.append(
        ("triangle-midpoints not rank-symmetric", not is_rank_symmetric(mid))
    )
    pin = build_nc_poset(load_builtin("triangle-pinwheel"))
    fixture_checks.append(
        ("triangle-pinwheel not graded", not gradedness(pin).is_graded)
    )
    failed_fixture = [name for name, ok in fixture_checks if not ok]
    ok = not bad and not failed_fixture
    detail = (
        f"{len(instances)} standard configurations graded; fixtures behave as recorded"
        if ok
        else f"ungraded standard instances: {bad[:3]}; fixture failures: {failed_fixture}"
    )
    return _finish(5, "gradedness", ok, detail, t0, 60.0)


def _scd_instances():
    out = [(("T", n, None), scd_T(n)) for n in range(6)]
    for m in range(4):
        for n in range(4):
            out.append((("U", m, n), scd_U(m, n)))
            out.append((("V", m, n), scd_V(m, n)))
            out.append((("S", m, n), scd_S(m, n)))
    return out


def criterion_6():
    t0 = time.perf_counter()
    bad = []
    for (fam, m, n), chains in _scd_instances():
        cfg = standard_config(fam, m) if n is None else standard_config(fam, m, n)
        poset = build_nc_poset(cfg)
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
    ok = not bad
    detail = (
        "54 decompositions verified: disjoint, covering, saturated, centered; "
        "all rank vectors palindromic"
        if ok
        else f"failures: {bad[:3]}"
    )
    return _finish(6, "symmetric-chains", ok, detail, t0, 120.0)


def criterion_7():
    t0 = time.perf_counter()
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
            # host_indices[i], must carry covers exactly onto covers
            induced = host.induced(part.host_indices)
            if not is_isomorphism(part.model, induced, range(len(induced))):
                bad.append((fam, m, n, part.name, "factor structure mismatch"))
        if len(seen) != total or sum(len(p.host_indices) for p in dec.parts) != total:
            bad.append((fam, m, n, "-", "parts do not partition the lattice"))
    ok = not bad
    detail = (
        f"{len(instances)} removal decompositions: parts partition each lattice "
        "and match their product models element-by-element"
        if ok
        else f"failures: {bad[:3]}"
    )
    return _finish(7, "decompositions", ok, detail, t0, 120.0)


def criterion_8():
    t0 = time.perf_counter()
    order = 12
    den = BivariateSeries.from_terms(
        {(0, 0): 1, (1, 0): -2, (0, 1): -2, (1, 1): 3}, order
    )
    one = BivariateSeries.from_terms({(0, 0): 1}, order)
    num_u = BivariateSeries.from_terms({(1, 0): 1, (0, 1): 1, (1, 1): -2}, order)
    checks = [
        ("V series times denominator is 1", series_V(order) * den == one),
        ("U series times denominator is x+y-2xy", series_U(order) * den == num_u),
        (
            "T series times (1-2x)^2 is (1-x)^2",
            series_T(order)
            * BivariateSeries.from_terms({(0, 0): 1, (1, 0): -4, (2, 0): 4}, order)
            == BivariateSeries.from_terms({(0, 0): 1, (1, 0): -2, (2, 0): 1}, order),
        ),
        (
            "S series row m=0 is the shifted Catalan numbers",
            all(
                series_S(order).coefficient(0, j) == catalan(j + 2)
                for j in range(order + 1)
            ),
        ),
    ]
    failed = [name for name, ok in checks if not ok]
    detail = (
        "all four identities hold through order 12"
        if not failed
        else f"failed: {failed}"
    )
    return _finish(8, "series-identities", not failed, detail, t0, 30.0)


def _axiom_check(cfg):
    poset = build_nc_poset(cfg)
    els = poset.elements
    size = len(els)
    down = [poset.down_mask(i, strict=False) for i in range(size)]
    up = [poset.up_mask(i, strict=False) for i in range(size)]
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


def criterion_9():
    t0 = time.perf_counter()
    details = []
    ok = True
    for fam, m, n, expect in (("S", 1, 2, 37), ("V", 2, 2, 33)):
        good, info = _axiom_check(standard_config(fam, m, n))
        if not good:
            ok = False
            details.append(f"{fam}({m},{n}): {info}")
        else:
            if info != expect:
                ok = False
                details.append(f"{fam}({m},{n}): size {info} != {expect}")
            else:
                details.append(f"{fam}({m},{n}): {info} elements, all axioms hold")
    return _finish(9, "lattice-axioms", ok, "; ".join(details), t0, 30.0)


def criterion_10():
    t0 = time.perf_counter()
    bad = []
    for n in range(1, 6):
        for fam in ("P", "Q"):
            if not is_self_dual(build_nc_poset(standard_config(fam, n))):
                bad.append((fam, n))
    failures = []
    for fam, m, n in NON_SELF_DUAL:
        if not is_self_dual(build_nc_poset(standard_config(fam, m, n))):
            failures.append(f"{fam}({m},{n})")
    ok = not bad and len(failures) == len(NON_SELF_DUAL)
    detail = (
        f"collinear and cyclic lattices self-dual for n <= 5; "
        f"non-self-dual instances with m+n <= 5: {', '.join(failures)}"
        if ok
        else f"unexpectedly non-self-dual: {bad}; failing instances found: {failures}"
    )
    return _finish(10, "self-duality", ok, detail, t0, 120.0)


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)

CRITERION_NAMES = (
    "tables-U",
    "tables-V",
    "tables-S",
    "tables-T",
    "gradedness",
    "symmetric-chains",
    "decompositions",
    "series-identities",
    "lattice-axioms",
    "self-duality",
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
            i + 1
            for i, name in enumerate(CRITERION_NAMES)
            if name == token or name.startswith(token)
        ]
        if not hits:
            raise InvalidInput(f"no criterion matches {token!r}")
        wanted.update(hits)
    if not wanted:
        raise InvalidInput("empty criterion selection")
    return wanted


def run_criteria(only=None):
    """Run all criteria, or the subset selected by `only`, a list of
    criterion numbers or name prefixes (so "tables" selects 1 through 4)."""
    wanted = _resolve_only(only) if only is not None else None
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if wanted is None or idx in wanted:
            results.append(fn())
    return results
