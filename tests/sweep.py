"""Every standard configuration the caps admit, run through the CLI.

For each standard argv with a point total of at most 15 (P m, Q m, T m, and
U, V and S m n), the script runs `check` and, for T, U, V and S, `scd`, each
in its own `python -m nclat.cli` process with the package imported from this
checkout's src/, one process at a time.  It prints one line per argv: the
exit code, then the `check` lines, or `scd`'s verified, chain_count and
element_count, or else the error line, so a refused argv is pinned by its
exit code 4.  Usage, from anywhere:

    python tests/sweep.py

It exits 1 when its lines differ from the committed tests/data/sweep.txt,
when a command runs longer than WALL_BOUND seconds or writes to stderr on
success, or when the lattice size given by the enumeration recurrences
(u_table, v_table, s_table, t_sequence, catalan, and 2^(m-1) for P) is not
the sum of the rank vector that an admitted `check` prints, or the
element_count of an admitted `scd`, or when the self-duality verdict of a
`check` of at most ORACLE_POINTS points differs from that of
oracles.backtracking_isomorphic, which the script runs on the lattice and
its dual, once per point set.  Every other field, the self-duality verdicts
of 8 to 15 points among them, is a regression pin with no oracle.  It
reports the slowest command and the largest peak RSS of a child on stderr,
and how many point sets the oracle checked.  To re-pin
after an intended change of output, run
`python tests/sweep.py > tests/data/sweep.txt`: that run exits 1, because
the shell empties the file before the script reads it.  A run takes about
two minutes, so it is a CI step, not part of tier-1.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PINNED = os.path.join(ROOT, "tests", "data", "sweep.txt")
sys.path.insert(0, SRC)

from nclat.enumeration import catalan, s_table, t_sequence, u_table, v_table  # noqa: E402
from nclat.geometry import point_count, standard_config  # noqa: E402
from nclat.poset import build_nc_poset  # noqa: E402
from oracles import backtracking_isomorphic  # noqa: E402

POINTS = 15
# seconds any one command may take, process start included: about seven
# times the slowest, 1.0-1.4 s on 2 cores with Python 3.11.7
WALL_BOUND = 10.0
# self-duality verdicts checked against the backtracking oracle: its height
# pass is quadratic in the lattice size, so the 429 elements of NC(Q_7) take
# it 1-2 s, and the 1430 of NC(Q_8) more than 3 minutes (2 cores, Python
# 3.11.7)
ORACLE_POINTS = 7


def standard_argvs():
    """(family, sizes) of every standard configuration of at most POINTS
    points, in family order, then by sizes."""
    out = [(f, (m,)) for f, extra in (("P", 0), ("Q", 0), ("T", 1))
           for m in range(POINTS + 1 - extra)]
    for fam, extra in (("U", 0), ("V", 1), ("S", 2)):
        out += [(fam, (m, n)) for m in range(POINTS + 1 - extra)
                for n in range(POINTS + 1 - extra - m)]
    return out


def lattice_size(fam, sizes):
    """The element count of NC of the configuration, by the recurrences."""
    if fam == "P":
        return 1 << max(sizes[0] - 1, 0)
    if fam == "Q":
        return catalan(sizes[0])
    if fam == "T":
        return t_sequence(sizes[0])[-1]
    if sizes == (0, 0) and fam == "U":
        return 1  # the table's u[0][0] is 0 by convention; no point has one partition
    m, n = sizes
    return {"U": u_table, "V": v_table, "S": s_table}[fam](m, n)[m][n]


def oracle_self_dual(fam, sizes, verdicts):
    """The backtracking oracle's self-duality verdict on NC of the
    configuration, kept in verdicts by point set."""
    config = standard_config(fam, *sizes)
    if config.points not in verdicts:
        poset = build_nc_poset(config)
        verdicts[config.points] = backtracking_isomorphic(poset, poset.dual())
    return verdicts[config.points]


def run(argv):
    """(exit code, stdout, stderr, seconds, peak RSS in KiB) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "nclat.cli", *argv],
                                stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        # wait4 reaped the child, so Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, usage.ru_maxrss)


def summary(command, code, out, err):
    if err or code not in (0, 1):
        return err.strip()
    if command == "check":
        return " | ".join(out.splitlines())
    report = json.loads(out)
    return " ".join(f"{k}={json.dumps(report[k])}"
                    for k in ("verified", "chain_count", "element_count"))


def main():
    try:
        with open(PINNED, encoding="utf-8") as f:
            pinned = f.read().splitlines()
    except FileNotFoundError:
        pinned = []
    lines, problems = [], []
    self_dual = {}
    slowest, largest = (0.0, ""), (0, "")
    argvs = standard_argvs()
    runs = [("check", a) for a in argvs] + [("scd", a) for a in argvs if a[0] in "TUVS"]
    for command, (fam, sizes) in runs:
        argv = [command, fam, *map(str, sizes)]
        name = " ".join(argv)
        code, out, err, seconds, rss = run(argv)
        line = f"{name}: {code} {summary(command, code, out, err)}"
        print(line, flush=True)
        lines.append(line)
        slowest = max(slowest, (seconds, name))
        largest = max(largest, (rss, name))
        if seconds > WALL_BOUND:
            problems.append(f"{name} took {seconds:.2f} s, over {WALL_BOUND} s")
        if err and code in (0, 1):
            problems.append(f"{name} exited {code} with stderr {err.strip()!r}")
        if code in (0, 1):
            if command == "scd":
                size = json.loads(out)["element_count"]
            elif "rank vector " in out:
                size = sum(ast.literal_eval(out.split("rank vector ", 1)[1].splitlines()[0]))
            else:
                size = "no rank vector"
            if size != lattice_size(fam, sizes):
                problems.append(f"{name}: {size} elements, "
                                f"the recurrence gives {lattice_size(fam, sizes)}")
            if command == "check" and point_count(fam, *sizes) <= ORACLE_POINTS:
                verdict = "self-dual: PASS" in out.splitlines()
                if verdict != oracle_self_dual(fam, sizes, self_dual):
                    problems.append(f"{name}: self-dual {verdict}, the oracle says "
                                    f"{not verdict}")
    if lines != pinned:
        diff = [(a, b) for a, b in zip(lines, pinned) if a != b]
        problems.append(f"{len(lines)} lines against {len(pinned)} pinned in {PINNED}"
                        + (f"; first difference: {diff[0][0]!r} vs {diff[0][1]!r}"
                           if diff else ""))
    print(f"{len(runs)} commands; {len(self_dual)} point sets checked by the "
          f"self-duality oracle; slowest {slowest[1]} in {slowest[0]:.2f} s; "
          f"largest peak RSS {largest[1]} at {largest[0] / 1024:.1f} MB",
          file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
