"""The CLI's exit-code and stderr contract, as a property over drawn argv and
drawn --input files.

Whatever the arguments and the file, `nclat` exits with a documented code,
0 to 6.  Success (0) and a failed check or comparison (1, reported on stdout)
leave stderr empty.  Every other exit writes one "error: ..." line to
stderr or, for an argument error (2) that argparse caught, its usage block.
No input surfaces a traceback.

Every drawn lattice has at most 7 points (--enum-cap is always drawn, from
-1 to 7) and every table extent is at most 6.  verify-paper runs only
selections of criterion 8, because criterion 5 forks a worker pool.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nclat.cli import main
from nclat.fixtures import BUILTIN

# stand-ins for paths, replaced in the test by a file holding the drawn
# document and by a path that does not exist
INPUT = "{input}"
MISSING = "{missing}"

FAMILIES = st.sampled_from(["P", "Q", "T", "U", "V", "S", "s", "X", ""])
CAP = st.integers(-1, 7).map(str)


def _sizes(low, high):
    return st.lists(st.integers(low, high).map(str), max_size=3)


def _flag(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _joined(words):
    return st.lists(st.sampled_from(words), max_size=4).map(",".join)


@st.composite
def _source(draw):
    argv = []
    if draw(st.booleans()):
        argv += [draw(FAMILIES)] + draw(_sizes(-1, 5))
    if draw(st.booleans()):
        argv += ["--input", draw(st.sampled_from([INPUT, INPUT, MISSING, ""]))]
    if draw(st.booleans()):
        argv += ["--fixture", draw(st.sampled_from(BUILTIN + ("bogus",)))]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["config", "lattice", "check", "scd", "tables", "verify-paper", "junk"]
    ))
    if command == "junk":
        return draw(st.lists(st.text(max_size=8), max_size=4))
    argv = [command]
    if command == "verify-paper":
        return argv + ["--only", draw(st.sampled_from(
            ["8", "series", "0", "11", "bogus", "", ",", "8,series"]
        ))]
    if command in ("config", "lattice", "check"):
        argv += draw(_source())
    else:
        argv += [draw(FAMILIES)] + draw(_sizes(-1, 6 if command == "tables" else 5))
    if command != "config":
        argv += ["--enum-cap", draw(CAP)]
    if command == "lattice":
        argv += draw(_flag("--format", st.sampled_from(["dot", "json", "svg"])))
    if command in ("lattice", "scd") and draw(st.booleans()):
        argv.append("--pretty")
    if command == "check":
        argv += draw(_flag("--properties", _joined(
            ["graded", "rank-symmetric", "self-dual", "lattice", "bogus", " "]
        )))
        argv += draw(_flag("--duality-cap", st.integers(-1, 500).map(str)))
    if command == "tables":
        argv += draw(_flag("--legs", _joined(
            ["recurrence", "series", "brute", "closed", "bogus"]
        )))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["-h", "--bogus", "7"])))
    return argv


COORDINATES = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**60), 10**60),
    st.sampled_from(["1/2", "-3/4", "1e3", "2.5e-1", "-0", "1/0", "x", "1e", "", "1e10000000"]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
POINT = st.one_of(
    st.lists(COORDINATES, min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.lists(st.integers(-3, 3), max_size=3),
    COORDINATES,
)


@st.composite
def _configuration(draw):
    points = draw(st.lists(POINT, max_size=6))
    if points and draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))  # a duplicate point
    doc = {"points": points}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.one_of(st.text(max_size=3), st.integers()), max_size=7))
    return doc


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["points", "labels", "x"]), inner, max_size=3),
    max_leaves=12,
)

DOCUMENTS = st.one_of(
    _configuration().map(lambda doc: json.dumps(doc).encode()),
    JSON_TREES.map(lambda doc: json.dumps(doc).encode()),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda raw: b"\xff" + raw),  # never UTF-8
)


@settings(
    max_examples=150,
    deadline=5000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs(), document=DOCUMENTS)
@example(
    argv=["config", "--input", INPUT],
    document=b'{"points": [["1e10000000", 0], [1, 0], [0, 1]]}',
)
@example(
    argv=["lattice", "--input", INPUT],
    document=b'{"points": [[' + b"1" * 5000 + b", 0], [1, 0], [0, 1]]}",
)
@example(argv=["check", "--input", INPUT], document=b"\xff\xfe")
@example(
    argv=["config", "--input", INPUT], document=b"[" * 100000 + b"]" * 100000
)
def test_exit_code_and_stderr_contract(tmp_path, argv, document):
    path = tmp_path / "input.json"
    path.write_bytes(document)
    paths = {INPUT: str(path), MISSING: str(tmp_path / "missing.json")}
    argv = [paths.get(arg, arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in range(7), (code, err)
    if code in (0, 1):
        assert err == ""
    elif code == 2 and err.startswith("usage: "):
        assert ": error: " in err.splitlines()[-1]
    else:
        assert err.startswith("error: ") and err.endswith("\n"), (code, err)
        assert err.count("\n") == 1, (code, err)
