"""The three workloads: fixed lists of nclat CLI operations, each with the
expectation its output is checked against.

Expectations never come from the code under test.  They are closed forms
(Catalan and Narayana numbers, 2^(n-1), (n+3)2^(n-2)), the frozen reference
tables of the acceptance criteria, the oracle in oracle.py for the seeded
random configurations, and stdout digests captured at the seed commit
(expected.json) for operations whose output that commit gets right, as shown
by the closed forms and the oracle when freeze.py wrote them.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from math import comb

import oracle

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "expected.json")

# per-operation deadline in seconds, far above every passing operation of
# the workload; the child is killed and the operation fails when it passes
DEADLINE = {"lattice": 60.0, "search": 20.0, "tables": 60.0}

# reference counts for 0 <= m, n <= 4 (row m), as frozen in the acceptance
# criteria
U_REF = ((0, 1, 2, 4, 8), (1, 2, 5, 12, 28), (2, 5, 14, 37, 94),
         (4, 12, 37, 106, 289), (8, 28, 94, 289, 838))
V_REF = ((1, 2, 4, 8, 16), (2, 5, 12, 28, 64), (4, 12, 33, 86, 216),
         (8, 28, 86, 245, 664), (16, 64, 216, 664, 1921))
S_REF = ((2, 5, 14, 42, 132), (4, 12, 37, 118, 387), (8, 28, 94, 317, 1082),
         (16, 64, 232, 824, 2921), (32, 144, 560, 2088, 7674))


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def narayana(n):
    return [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)]


def t_count(n):
    return (1, 2)[n] if n < 2 else (n + 3) * 2 ** (n - 2)


# first row and first column of each family's table, in closed form
EDGES = {
    "U": (lambda n: 2 ** (n - 1) if n else 0, lambda m: 2 ** (m - 1) if m else 0),
    "V": (lambda n: 2 ** n, lambda m: 2 ** m),
    "S": (lambda n: catalan(n + 2), lambda m: 2 ** (m + 1)),
}
REFS = {"U": U_REF, "V": V_REF, "S": S_REF}


@dataclass
class Op:
    """One CLI operation.  `check(stdout_text)` returns a list of problems.
    With `digest`, stdout must also hash to its entry in expected.json.
    `defect` names a known defect of the program that makes it fail, and
    `fails_by` the only failure it excuses: "deadline", or the exception
    type of a traceback with exit 1 and empty stdout."""

    name: str
    argv: list
    rc: int
    check: object
    digest: bool = False
    defect: str = None
    fails_by: str = None
    or_exit: int = None  # a documented exit code also accepted, stdout empty
    oracle: dict = field(default=None, repr=False)


def digest_of(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests():
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _literal(text):
    def check(out):
        return [] if out == text else [f"stdout {out[:120]!r} != {text[:120]!r}"]
    return check


def _verdicts(numbers):
    def check(out):
        lines = out.splitlines()
        got = [int(line.split()[2]) for line in lines
               if line.startswith("PASS criterion ")]
        if got != list(numbers) or len(lines) != len(numbers):
            return [f"PASS lines for criteria {got}, want {list(numbers)}"]
        return []
    return check


def parse_tables(out):
    legs, cur, tail = {}, None, []
    for line in out.splitlines():
        if line.startswith("# leg: "):
            cur = legs[line[len("# leg: "):]] = []
        elif line.startswith(("cross-check", "mismatch")):
            tail.append(line)
        elif cur is not None and not line.startswith(("m\\n,", "n,")):
            cur.append([int(c) for c in line.split(",")[1:]])
    return legs, tail


def _table_check(fam, m, n, legs):
    def check(out):
        got, tail = parse_tables(out)
        problems = []
        if list(got) != legs:
            problems.append(f"legs {list(got)} != {legs}")
        if tail != [f"cross-check: all {len(legs)} legs agree"]:
            problems.append(f"cross-check line {tail}")
        top, left = EDGES[fam]
        for leg, rows in got.items():
            if len(rows) != m + 1 or any(len(r) != n + 1 for r in rows):
                problems.append(f"{leg}: shape is not {m + 1}x{n + 1}")
                continue
            if rows[0] != [top(j) for j in range(n + 1)]:
                problems.append(f"{leg}: row 0 breaks its closed form")
            if [r[0] for r in rows] != [left(i) for i in range(m + 1)]:
                problems.append(f"{leg}: column 0 breaks its closed form")
            k, k2 = min(m, 4) + 1, min(n, 4) + 1
            if [r[:k2] for r in rows[:k]] != [list(r[:k2]) for r in REFS[fam][:k]]:
                problems.append(f"{leg}: differs from the frozen reference")
        return problems
    return check


def _t_check(max_n, legs):
    def check(out):
        got, tail = parse_tables(out)
        want = [[t_count(i) for i in range(max_n + 1)]]
        problems = [f"{leg}: not (n+3)2^(n-2)" for leg, rows in got.items()
                    if rows != want]
        if list(got) != legs:
            problems.append(f"legs {list(got)} != {legs}")
        if tail != [f"cross-check: all {len(legs)} legs agree"]:
            problems.append(f"cross-check line {tail}")
        return problems
    return check


def _lattice_json(count, ranks):
    def check(out):
        obj = json.loads(out)
        problems = []
        if len(obj["elements"]) != count:
            problems.append(f"{len(obj['elements'])} elements, want {count}")
        if obj["rank_vector"] != ranks or obj["flags"] != {
            "graded": True, "rank_symmetric": True
        }:
            problems.append("rank vector or flags differ from the closed form")
        return problems
    return check


def _dot_nodes(count):
    def check(out):
        nodes = sum(1 for line in out.splitlines() if "[label = " in line)
        return [] if nodes == count else [f"{nodes} DOT nodes, want {count}"]
    return check


def _scd_json(count):
    def check(out):
        obj = json.loads(out)
        problems = []
        if not obj["verified"] or obj["element_count"] != count:
            problems.append(f"verified={obj['verified']} over {obj['element_count']}")
        sizes = [len(ch) for ch in obj["chains"]]
        if sum(sizes) != count or obj["chain_count"] != len(sizes):
            problems.append("chains do not partition the elements")
        points = sum(len(b) for b in obj["chains"][0][0])
        for ch in obj["chains"]:
            ranks = [points - len(pi) for pi in ch]
            if ranks != list(range(ranks[0], ranks[0] + len(ch))):
                problems.append("a chain skips a rank")
                break
            if ranks[0] + ranks[-1] != points - 1:
                problems.append("a chain is not centred")
                break
        return problems
    return check


def _checked(ranks, count):
    """`check` with all four properties on a graded lattice that is not
    self-dual; the oracle confirms both verdicts and the rank vector, whose
    sum is the frozen table entry `count`."""
    if sum(ranks) != count:
        raise ValueError(f"rank vector {ranks} does not sum to {count}")
    return _literal(
        f"graded: PASS\nrank-symmetric: PASS rank vector {ranks}\n"
        "self-dual: FAIL\nlattice: PASS\n")


# ---------------------------------------------------------------------------
# seeded random configurations, checked against the oracle

def _blocks(text):
    return frozenset(tuple(int(x) for x in b.split(",")) for b in text.split("|"))


def _refines(fine, coarse):
    where = {x: i for i, b in enumerate(coarse) for x in b}
    return all(len({where[x] for x in b}) == 1 for b in fine)


def _random_lattice_check(facts):
    def check(out):
        obj = json.loads(out)
        els = [frozenset(tuple(b) for b in e) for e in obj["elements"]]
        problems = []
        if len(set(els)) != len(els) or set(els) != facts["elements"]:
            problems.append("element set differs from the oracle's")
            return problems
        graded = True
        for i, j in obj["covers"]:
            if len(els[i]) <= len(els[j]) or not _refines(els[i], els[j]):
                problems.append(f"cover {i} -> {j} is not a strict refinement")
                break
            graded = graded and len(els[i]) - len(els[j]) == 1
        vec = facts["rank_vector"]
        want_flags = {"graded": graded,
                      "rank_symmetric": vec == vec[::-1] if graded else None}
        if obj["flags"] != want_flags:
            problems.append(f"flags {obj['flags']} != {want_flags}")
        if obj["rank_vector"] != (vec if graded else None):
            problems.append("rank vector differs from the oracle's")
        return problems
    return check


def _random_check_check(facts):
    vec = facts["rank_vector"]

    def check(out):
        lines = out.splitlines()
        problems = []
        if facts["graded"]:
            want = ["graded: PASS",
                    f"rank-symmetric: {'PASS' if vec == vec[::-1] else 'FAIL'}"
                    f" rank vector {vec}"]
            if lines[:2] != want:
                problems.append(f"{lines[:2]} != {want}")
        else:
            problems.extend(_witness_problems(lines[0], facts["elements"]))
            if lines[1:2] != ["rank-symmetric: FAIL not graded, so no rank vector"]:
                problems.append(f"rank-symmetric line {lines[1:2]}")
        if lines[2:] != ["self-dual: FAIL", "lattice: PASS"]:
            problems.append(f"{lines[2:]} != self-dual FAIL, lattice PASS")
        return problems
    return check


def _witness_problems(line, elements):
    head = "graded: FAIL witness cover "
    if not line.startswith(head):
        return [f"graded line {line!r}, the oracle says not graded"]
    lo, hi = (_blocks(s) for s in line[len(head):].split(" -> "))
    if lo not in elements or hi not in elements or len(lo) - len(hi) < 2 \
            or not _refines(lo, hi):
        return [f"witness {line!r} is not a strict rank-jumping pair"]
    if any(len(lo) > len(z) > len(hi) and _refines(lo, z) and _refines(z, hi)
           for z in elements):
        return [f"witness {line!r} is not a cover"]
    return []


# ---------------------------------------------------------------------------
# the workloads

def _digested(name, argv, rc, check):
    return Op(name, argv, rc, check, digest=True)


def lattice_ops(seed, workdir):
    ops = [
        _digested("lattice Q10 json", ["lattice", "Q", "10", "--format", "json"],
                  0, _lattice_json(catalan(10), narayana(10))),
        _digested("lattice S44 dot", ["lattice", "S", "4", "4", "--format", "dot"],
                  0, _dot_nodes(S_REF[4][4])),
        Op("check U55 graded", ["check", "U", "5", "5", "--properties",
                                "graded,rank-symmetric"], 0, _literal(
            "graded: PASS\nrank-symmetric: PASS rank vector "
            "[1, 33, 288, 1072, 2007, 2007, 1072, 288, 33, 1]\n")),
        Op("check pinwheel graded", ["check", "--fixture", "triangle-pinwheel",
                                     "--properties", "graded"], 1,
           _literal("graded: FAIL witness cover 0,5|1,3|2,4 -> 0,1,2,3,4,5\n")),
    ]
    for slot in ("a", "b"):
        facts = oracle.draw_config(seed, f"lattice-{slot}", 10, 5,
                                   band=(12000, 13000))
        path = os.path.join(workdir, f"lattice-{slot}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(facts["json"])
        ops.append(Op(f"lattice random-{slot} json",
                      ["lattice", "--input", path, "--format", "json"], 0,
                      _random_lattice_check(facts), oracle=facts))
    ops.append(Op("verify-paper 5", ["verify-paper", "--only", "5"], 0,
                  _verdicts([5])))
    return ops


def search_ops(seed, workdir):
    ops = [
        Op("check Q7", ["check", "Q", "7"], 0, _literal(
            "graded: PASS\n"
            f"rank-symmetric: PASS rank vector {narayana(7)}\n"
            "self-dual: PASS\nlattice: PASS\n")),
        Op("check T8", ["check", "T", "8"], 1,
           _checked([1, 15, 70, 161, 210, 161, 70, 15, 1], t_count(8))),
        Op("check U44", ["check", "U", "4", "4"], 1,
           _checked([1, 22, 123, 273, 273, 123, 22, 1], U_REF[4][4])),
        Op("check S23", ["check", "S", "2", "3"], 1,
           _checked([1, 18, 78, 123, 78, 18, 1], S_REF[2][3])),
    ]
    for slot in ("a", "b"):
        facts = oracle.draw_config(seed, f"search-{slot}", 8, 4,
                                   band=(1050, 1200), decide_duality=True)
        path = os.path.join(workdir, f"search-{slot}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(facts["json"])
        ops.append(Op(f"check random-{slot}", ["check", "--input", path], 1,
                      _random_check_check(facts), oracle=facts))
    ops += [
        Op("check Q8 self-dual", ["check", "Q", "8", "--properties", "self-dual"],
           0, _literal("self-dual: PASS\n"),
           defect="the self-duality search runs for minutes on NC(Q_8)",
           fails_by="deadline"),
        Op("check P11 self-dual", ["check", "P", "11", "--properties", "self-dual"],
           0, _literal("self-dual: PASS\n"),
           defect="poset_isomorphic recurses once per element",
           fails_by="RecursionError"),
        _digested("scd S44", ["scd", "S", "4", "4"], 0, _scd_json(S_REF[4][4])),
        _digested("scd U55", ["scd", "U", "5", "5"], 0, _scd_json(6802)),
        Op("scd S07", ["scd", "S", "0", "7"], 0, _scd_json(catalan(9)),
           defect="generic_scd recurses too deep", fails_by="RecursionError",
           or_exit=5),
        Op("verify-paper 6,7,9,10", ["verify-paper", "--only", "6,7,9,10"], 0,
           _verdicts([6, 7, 9, 10])),
    ]
    return ops


def tables_ops(seed, workdir):
    ops = []
    for fam, m, n in (("U", 4, 4), ("V", 4, 4), ("S", 4, 4), ("U", 5, 5),
                      ("V", 5, 4), ("S", 5, 3)):
        ops.append(_digested(f"tables {fam}{m}{n}", ["tables", fam, str(m), str(n)],
                             0, _table_check(fam, m, n,
                                             ["recurrence", "series", "brute"])))
    legs = ["recurrence", "closed", "series", "brute"]
    ops.append(_digested("tables T10", ["tables", "T", "10", "--legs", ",".join(legs)],
                         0, _t_check(10, legs)))
    ops.append(_digested("tables S4040", ["tables", "S", "40", "40", "--legs",
                                          "recurrence,series"], 0,
                         _table_check("S", 40, 40, ["recurrence", "series"])))
    ops.append(Op("verify-paper tables,8", ["verify-paper", "--only", "tables,8"],
                  0, _verdicts([1, 2, 3, 4, 8])))
    return ops


WORKLOADS = {"lattice": lattice_ops, "search": search_ops, "tables": tables_ops}
