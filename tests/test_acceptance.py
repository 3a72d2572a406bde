"""Acceptance criteria, one test each.

Every test prints its criterion's one-line verdict before asserting, so a
plain pytest run shows the whole scoreboard with -s (or in the captured
output of a failing criterion).
"""

import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import threading

import pytest

import nclat
from nclat import acceptance
from nclat.errors import InvalidInput
from nclat.poset import GradedInfo


# verify-paper's stdout with the measured seconds masked, one line per
# criterion: every name, detail string and budget is pinned here
with open(os.path.join(os.path.dirname(__file__), "data", "verify_paper.txt")) as fh:
    EXPECTED_LINES = fh.read().splitlines()


def _masked(line):
    return re.sub(r"\[\d+\.\d+s / ", "[s / ", line)


def _run(number):
    res = acceptance.run_criteria(only=[str(number)])[0]
    print(res.line())
    assert res.ok, res.line()
    assert _masked(res.line()) == EXPECTED_LINES[number - 1]
    return res


def test_criteria_table():
    assert [(name, budget) for name, budget, _ in acceptance.CRITERIA] == [
        ("tables-U", 10.0),
        ("tables-V", 30.0),
        ("tables-S", 120.0),
        ("tables-T", 30.0),
        ("gradedness", 60.0),
        ("symmetric-chains", 120.0),
        ("decompositions", 120.0),
        ("series-identities", 30.0),
        ("lattice-axioms", 30.0),
        ("self-duality", 120.0),
    ]
    assert len(EXPECTED_LINES) == len(acceptance.CRITERIA)


def test_standard_instances_pinned():
    instances = acceptance._standard_instances()
    assert len(instances) == 156
    assert hashlib.sha256(repr(instances).encode()).hexdigest() == (
        "f4aa28d487abc39dc7a6b07a651b7128810aeea60e4426a785ee83c5d15634b7"
    )


def test_criterion_01_tables_U():
    res = _run(1)
    assert res.seconds < 10


def test_criterion_02_tables_V():
    res = _run(2)
    assert res.seconds < 30


def test_criterion_03_tables_S():
    res = _run(3)
    assert res.seconds < 120


def test_criterion_04_tables_T():
    _run(4)


def test_criterion_05_gradedness():
    res = _run(5)
    assert res.seconds < 60


def test_criterion_05_reports_the_ungraded_instance(monkeypatch):
    real = acceptance.gradedness

    def s16_ungraded(poset):
        # S(1,6) has 4433 elements, a size no other poset of criterion 5
        # has.  Forked workers inherit the patch; a verdict that came back
        # attributed to another instance would name that one instead
        if len(poset) == 4433:
            return GradedInfo(False, ("low", "high"))
        return real(poset)

    monkeypatch.setattr(acceptance, "gradedness", s16_ungraded)
    res = acceptance.run_criteria(only=["5"])[0]
    assert res.ok is False
    assert "ungraded standard instances: [('S', 1, 6, ('low', 'high'))];" in res.detail


def test_criterion_06_symmetric_chains():
    res = _run(6)
    assert res.seconds < 120


def test_criterion_07_decompositions():
    res = _run(7)
    assert res.seconds < 120


def test_criterion_07_checks_each_part_map(monkeypatch):
    real = acceptance.decomposition_parts

    def swapped(fam, m, n):
        # one part's map, reversed: still onto the same host elements,
        # and the induced subposet is still isomorphic to the model
        dec = real(fam, m, n)
        if (fam, m, n) == ("U", 2, 2):
            dec.parts[0].host_indices.reverse()
        return dec

    monkeypatch.setattr(acceptance, "decomposition_parts", swapped)
    res = acceptance.run_criteria(only=["7"])[0]
    assert res.ok is False
    assert "('U', 2, 2, 'A', 'factor structure mismatch')" in res.detail


def test_criterion_08_series_identities():
    _run(8)


def test_criterion_09_lattice_axioms():
    _run(9)


def test_criterion_10_self_duality():
    res = _run(10)
    assert res.seconds < 120


def test_criterion_10_needs_every_non_self_dual_instance(monkeypatch):
    real = acceptance.is_self_dual

    def u14_self_dual(poset, *args, **kwargs):
        # U(1,4) has 28 elements, a size no other instance of criterion 10 has
        if len(poset.elements) == 28:
            return True
        return real(poset, *args, **kwargs)

    monkeypatch.setattr(acceptance, "is_self_dual", u14_self_dual)
    res = acceptance.run_criteria(only=["10"])[0]
    assert res.ok is False
    assert "U(1,4)" not in res.detail


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _fail_at_three(x):
    if x == 3:
        raise InvalidInput("three")
    return x


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nclat.__path__[0]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )


def test_map_keeps_input_order():
    items = list(range(4 * acceptance._usable_cpus() + 3))
    assert acceptance._map(_square, items) == [x * x for x in items]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(acceptance._usable_cpus() < 2, reason="needs two usable CPUs")
def test_map_runs_in_workers():
    pids = set(acceptance._map(_pid, range(8)))
    assert os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_map_raises_a_worker_error():
    with pytest.raises(InvalidInput, match="three"):
        acceptance._map(_fail_at_three, range(8))
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(acceptance._usable_cpus() < 2, reason="needs two usable CPUs")
def test_map_forks_before_the_pool_starts_threads(monkeypatch):
    # Python 3.12 and later warn when a process with threads forks
    real = os.fork
    threads = []

    def fork():
        threads.append(threading.active_count())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    acceptance._map(_square, range(8))
    assert threads == [1] * min(acceptance._usable_cpus(), 8)


def _no_fork():
    raise AssertionError("forked")


@pytest.mark.parametrize("case", ["one-cpu", "one-item", "no-fork-method"])
def test_map_runs_in_process(monkeypatch, case):
    monkeypatch.setattr(os, "fork", _no_fork)
    items = range(5)
    if case == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif case == "one-item":
        items = [7]
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert acceptance._map(_pid, items) == [os.getpid()] * len(items)


def test_map_workers_do_not_run_the_callers_sigterm_handler():
    # A caller whose SIGTERM handler raises, as perfbench/child.py's does:
    # workers that inherited it would print a traceback when the pool stops
    # them, on success or after a worker's error
    code = (
        "import signal\n"
        "from nclat import acceptance\n"
        "from nclat.errors import InvalidInput\n"
        "class Deadline(BaseException):\n"
        "    pass\n"
        "def on_term(signum, frame):\n"
        "    raise Deadline()\n"
        "def square(x):\n"
        "    return x * x\n"
        "def fail(x):\n"
        "    if x == 0:\n"
        "        raise InvalidInput('zero')\n"
        "    return x\n"
        "signal.signal(signal.SIGTERM, on_term)\n"
        "for _ in range(20):\n"
        "    assert acceptance._map(square, range(8)) == [x * x for x in range(8)]\n"
        "    try:\n"
        "        acceptance._map(fail, range(8))\n"
        "    except InvalidInput:\n"
        "        pass\n"
    )
    res = _run_python(code)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_cli_does_not_import_multiprocessing():
    # only _map imports it: at module level it would slow every command
    code = (
        "import sys, nclat.cli\n"
        "code = nclat.cli.main(['verify-paper', '--only', '8'])\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "sys.exit(code)\n"
    )
    res = _run_python(code)
    assert res.returncode == 0, res.stderr


def test_run_criteria_filtering():
    results = acceptance.run_criteria(only=["tables"])
    assert [r.number for r in results] == [1, 2, 3, 4]
    results = acceptance.run_criteria(only=["9", "self-duality"])
    assert [r.number for r in results] == [9, 10]
    results = acceptance.run_criteria(only=["s"])
    assert [r.number for r in results] == [6, 8, 10]
    from nclat.errors import InvalidInput

    with pytest.raises(InvalidInput):
        acceptance.run_criteria(only=["bogus"])
