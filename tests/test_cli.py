"""CLI subcommands, exit codes, and output determinism."""

import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import nclat
from nclat import poset
from nclat.cli import INPUT_LIMIT, main
from nclat.errors import AssemblyFailure
from nclat.geometry import config_from_json, make_configuration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_standard(capsys):
    code, out, err = run(capsys, "config", "U", "3", "4")
    assert code == 0 and err == ""
    cfg = config_from_json(out)
    assert len(cfg.points) == 7


def test_config_from_file(tmp_path, capsys):
    path = tmp_path / "pts.json"
    path.write_text('{"points": [[0, 0], [1, 0], [0, 1]]}')
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 0
    assert len(config_from_json(out).points) == 3


def test_config_duplicate_point_file(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text('{"points": [[0, 0], [0, 0]]}')
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 3
    assert "DuplicatePoint" in err


def test_config_missing_file(capsys):
    code, out, err = run(capsys, "config", "--input", "/no/such/file.json")
    assert code == 3


def test_config_file_not_utf8(tmp_path, capsys):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def test_config_file_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1


def test_input_length_limit(tmp_path, capsys):
    # valid JSON padded with spaces: a file of exactly the limit is read, one
    # character more is rejected before any parsing
    text = '{"points": [[0, 0], [1, 0], [0, 1]]}'
    path = tmp_path / "pad.json"
    path.write_text(text.ljust(INPUT_LIMIT))
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 0 and err == ""
    assert len(config_from_json(out).points) == 3
    path.write_text(text.ljust(INPUT_LIMIT + 1))
    code, out, err = run(capsys, "config", "--input", str(path))
    assert code == 3 and out == ""
    assert err == f"error: {path} is longer than {INPUT_LIMIT} characters\n"


@pytest.mark.parametrize("command", ["config", "lattice"])
@pytest.mark.parametrize("coordinate", [
    '"1e10000000"',  # Fraction alone would take seconds to build 10**10000000
    "1" * 5000,  # a JSON integer past the int-to-str digit limit
    '"1e4400"',  # Fraction builds it, but config could not print it
], ids=["huge-exponent", "json-integer", "unprintable"])
def test_input_past_the_digit_limit(tmp_path, capsys, command, coordinate):
    path = tmp_path / "big.json"
    path.write_text('{"points": [[%s, 0], [1, 0], [0, 1]]}' % coordinate)
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: InvalidInput: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_config_coordinate_past_the_digit_limit(capsys, monkeypatch):
    # a library configuration can hold any int; config exits 4 on it, as
    # tables does, with nothing on stdout
    big = make_configuration([(10 ** 5000, 0), (0, 1)])
    monkeypatch.setattr("nclat.cli._load_config", lambda args: big)
    code, out, err = run(capsys, "config", "Q", "2")
    assert code == 4 and out == ""
    assert err.startswith("error: TooLarge: a coordinate has more than ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_bad_family(capsys):
    code, out, err = run(capsys, "config", "X", "3")
    assert code == 2
    assert "unknown family" in err


def test_config_needs_exactly_one_source(capsys):
    code, out, err = run(capsys, "config")
    assert code == 2


def test_lattice_dot(capsys):
    code, out, err = run(capsys, "lattice", "Q", "4", "--format", "dot")
    assert code == 0
    assert out.count("->") == 28  # 14-element lattice, 28 covers
    assert "rank = same" in out


def test_lattice_json(capsys):
    code, out, err = run(capsys, "lattice", "P", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["elements"]) == 8
    assert len(obj["covers"]) == 12


def test_lattice_cap(capsys):
    code, out, err = run(capsys, "lattice", "Q", "13")
    assert code == 4
    assert "TooLarge" in err
    # 12 points pass the point cap; the 208012 elements pass the lattice cap
    code, out, err = run(capsys, "lattice", "Q", "12")
    assert code == 4 and out == ""
    assert "more than 20000" in err


def test_point_cap_checked_before_points_are_built(capsys, monkeypatch):
    def no_points(*args):
        raise AssertionError("points built for a family past the point cap")

    monkeypatch.setattr("nclat.cli.standard_config", no_points)
    for argv in (("config", "Q", "16"), ("lattice", "Q", "16"), ("check", "S", "14", "0"),
                 ("scd", "S", "0", "14")):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err == "error: TooLarge: configuration has 16 points, cap is 15\n"


# the element cap admits every configuration of 15 points: NC(P_15), with
# 2^14 elements, is the smallest lattice of 15 points
def test_lattice_of_the_most_points_the_element_cap_admits(capsys):
    code, out, err = run(capsys, "lattice", "P", "15", "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert len(obj["elements"]) == 2 ** 14
    assert obj["rank_vector"] == [math.comb(14, k) for k in range(15)]


def test_scd_past_twelve_points(capsys):
    code, out, err = run(capsys, "scd", "T", "12")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["verified"] is True and obj["element_count"] == 15360


def test_check_past_twelve_points(capsys):
    code, out, err = run(capsys, "check", "U", "1", "12")
    assert (code, err) == (1, "")
    assert out == (
        "graded: PASS\n"
        "rank-symmetric: PASS rank vector "
        "[1, 23, 176, 715, 1815, 3102, 3696, 3102, 1815, 715, 176, 23, 1]\n"
        "self-dual: FAIL\n"
        "lattice: PASS\n"
    )


def test_dot_title_is_escaped(tmp_path, capsys):
    path = tmp_path / 'q"x\\y.json'
    path.write_text('{"points": [[0, 0], [1, 0]]}')
    code, out, err = run(capsys, "lattice", "--input", str(path), "--format", "dot")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == 'digraph "q\\"x\\\\y" {'


def test_enum_cap_flag(capsys, monkeypatch):
    # brute counting's point cap is 12: T_11 has 12 points and T_12 has 13,
    # so the brute leg counts the first and refuses the second before it
    # counts any configuration
    code, out, err = run(capsys, "tables", "T", "11", "--legs", "brute")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].split(",")[-1] == "7168"

    def no_count(config):
        raise AssertionError("the brute leg ran past its point cap")

    monkeypatch.setattr("nclat.enumeration.count_noncrossing", no_count)
    code, out, err = run(capsys, "tables", "T", "12", "--legs", "brute")
    assert code == 4 and out == ""
    assert err == "error: TooLarge: configuration has 13 points, cap is 12\n"
    # the cap is a constant, not an option
    code, out, err = run(capsys, "tables", "U", "3", "3", "--enum-cap", "4")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --enum-cap 4" in err


def test_check_has_no_duality_cap(capsys):
    code, out, err = run(capsys, "check", "Q", "7", "--duality-cap", "10")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --duality-cap 10" in err


def test_check_pass_and_fail_lines(capsys):
    code, out, err = run(capsys, "check", "U", "2", "3")
    # graded and rank-symmetric hold; this lattice is not self-dual
    assert code == 1
    lines = out.splitlines()
    assert "graded: PASS" in lines[0]
    assert "rank-symmetric: PASS" in lines[1]
    assert "self-dual: FAIL" in lines[2]
    assert "lattice: PASS" in lines[3]

    code, out, err = run(capsys, "check", "U", "2", "3", "--properties", "graded,lattice")
    assert code == 0
    assert "self-dual" not in out


def test_check_decides_the_lattice_verdict_once(capsys, monkeypatch):
    # a self-duality search refuted with no context isomorphism runs no
    # lattice pass, so the lattice line runs the only one
    passes = []
    real = poset.lattice_check
    for module in (poset, nclat.cli):
        monkeypatch.setattr(module, "lattice_check", lambda p: passes.append(p) or real(p))
    code, out, err = run(capsys, "check", "U", "2", "3", "--properties", "self-dual,lattice")
    assert (code, out, err) == (1, "self-dual: FAIL\nlattice: PASS\n", "")
    assert len(passes) == 1
    code, out, err = run(capsys, "check", "S", "5", "4", "--properties", "self-dual")
    assert (code, out, err) == (1, "self-dual: FAIL\n", "")
    assert len(passes) == 1


def test_check_fixture_witnesses(capsys):
    code, out, err = run(capsys, "check", "--fixture", "triangle-pinwheel",
                         "--properties", "graded")
    assert code == 1
    assert "graded: FAIL" in out and "witness cover" in out

    code, out, err = run(capsys, "check", "--fixture", "triangle-midpoints",
                         "--properties", "graded,rank-symmetric")
    assert code == 1
    assert "graded: PASS" in out
    assert "rank-symmetric: FAIL" in out


@pytest.mark.parametrize("family,m", [("Q", "8"), ("P", "11"), ("Q", "10"), ("P", "15")])
def test_check_self_dual_on_large_symmetric_lattices(capsys, monkeypatch, family, m):
    # NC(Q_8) has 1430 elements, NC(P_11) 1024, NC(Q_10) 16796 and NC(P_15)
    # 16384; each search must fit in 20,000 signatures, a hundredth of the
    # isomorphism budget
    monkeypatch.setattr(poset, "ISOMORPHISM_BUDGET", 20_000)
    code, out, err = run(capsys, "check", family, m, "--properties", "self-dual")
    assert (code, out, err) == (0, "self-dual: PASS\n", "")


def test_check_all_properties_past_the_old_duality_cap(capsys):
    # NC(Q_9) has 4862 elements: self-duality and the lattice verdict both
    # run, within the unchanged isomorphism budget
    code, out, err = run(capsys, "check", "Q", "9")
    assert (code, err) == (0, "")
    assert out == (
        "graded: PASS\n"
        "rank-symmetric: PASS rank vector [1, 36, 336, 1176, 1764, 1176, 336, 36, 1]\n"
        "self-dual: PASS\n"
        "lattice: PASS\n"
    )


def test_check_undecided_exit_code(capsys, monkeypatch):
    # NC(Q_6) is decided with 840 signatures
    monkeypatch.setattr(poset, "ISOMORPHISM_BUDGET", 500)
    code, out, err = run(capsys, "check", "Q", "6")
    assert code == 6
    assert out.splitlines()[0] == "graded: PASS"
    assert "self-dual" not in out
    assert err.startswith("error: Undecided: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_check_unknown_property(capsys):
    code, out, err = run(capsys, "check", "Q", "4", "--properties", "sorted")
    assert code == 2


def test_scd_verified(capsys):
    code, out, err = run(capsys, "scd", "T", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["verified"] is True
    assert obj["element_count"] == 28
    covered = [tuple(map(tuple, el)) for chain in obj["chains"] for el in chain]
    assert len(covered) == len(set(covered)) == 28


def test_scd_families(capsys):
    for fam, m, n, size in (("S", "2", "2", 94), ("V", "2", "2", 33)):
        code, out, err = run(capsys, "scd", fam, m, n)
        assert code == 0
        obj = json.loads(out)
        assert obj["verified"] and obj["element_count"] == size


# stdout sha256 of the backtracking SCD search that generic_scd replaced,
# recorded with a raised recursion limit: under the default one that search
# died with RecursionError on these NC(Q_9) and NC(Q_10) tails
SCD_DIGESTS = {
    ("S", "0", "7"): "843b1392dd1577227059f0615566c22294eebd9b20c6e0162571286c8fa112fc",
    ("S", "0", "8"): "a468fc8c798209d15874c999e5433dfc49341ed3afa60ee6107319af1ec793e0",
    ("S", "1", "7"): "346ee0474b16668a5f6d446d3c82275bd979cfba60ac77b6a966dc9f1f81cd02",
}


@pytest.mark.parametrize("sizes", list(SCD_DIGESTS))
def test_scd_large_classical_tails(capsys, sizes):
    code, out, err = run(capsys, "scd", *sizes)
    assert code == 0 and err == ""
    assert json.loads(out)["verified"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == SCD_DIGESTS[sizes]


# exit code and stdout sha256 of exports and reports that no other test pins
# byte for byte, recorded before the series and gradedness code was merged
EXPORT_DIGESTS = {
    "lattice Q 8 --format json":
        (0, "9756d49c179c2610208560caa7e9850e2fde4a218643d984d70c314228706342"),
    "lattice --fixture triangle-pinwheel --format json":
        (0, "1fe0ebb1704d7cf45db2012986c0b0db0f51c17949915d474e38819d53caf955"),
    "lattice --fixture triangle-pinwheel --format dot":
        (0, "3aa06092fc7867053533f2b412b0775079dddd560355fb3a285f76d34e29b48b"),
    # the coordinates and labels of each fixture, which its lattice's order
    # type alone does not fix
    "config --fixture hexagon6":
        (0, "e23412a9df860f38d2c74494f917dc8a15dfa1b62a664290a7ee1258370cec99"),
    "config --fixture triangle-midpoints":
        (0, "866b5a3857e406988d376aa82e8888a6df257258a4d40304805205d5041bc428"),
    "config --fixture triangle-pinwheel":
        (0, "c0e538233f0940deb08971dc827eec9fb374f51782d834fcf28712e652da4b1c"),
    "lattice --fixture hexagon6 --format dot":
        (0, "63cda670fd805933bcc2cad1fe392f245db65e00b8f4f0788c18e7c4fc40d654"),
    "lattice --fixture triangle-midpoints --format json":
        (0, "9ae81c56c32d638255ce148f6917e00eeddf90add33a14edea47abb66c3e6cef"),
    "lattice U 3 3 --format dot":
        (0, "e10445007db269b56eed5bf4d4d47e5621d123937820dc6fe4842247b7809aaa"),
    "check --fixture triangle-midpoints":
        (1, "d9f9247a8e2f0688ed40c60d81e846c043cc7a158bb92fa70bcebaeea77f0b3d"),
    "check T 6":
        (1, "c8a60c760f9acba2a9f6d4f7a42e8bc3c645db1fce79e0c490c88beaf1a58087"),
    "scd V 3 3":
        (0, "bb781fe374ae79de9aaa572ac4d0c4b5fc1de69b5ff845f6832fb8f2c1ff1e04"),
    "scd U 3 3":
        (0, "0991a42e8dd9afff70047627e65b42cdceda476198ab79ece88868ff7f361088"),
    "scd T 6":
        (0, "9f155c35e02ceb26642f8c5a78f83812096640eac56d9e10da5bb02e51358978"),
    "scd S 2 3":
        (0, "4374d7e08173067cfd6f8081a5c04c5c5f56c157f335386e870e144307a59dde"),
    # m = 1 takes the reflection of U_{n,1}
    "scd U 1 4":
        (0, "d8fbc61cec78cef217d194238a14900fe8756caf4555d12ccbae9a08194f6782"),
    "scd V 1 3":
        (0, "ae1790974886d6cf33838a80d10ceeb52eb80e646d73eac2e53cf9e560ffafbd"),
    "scd S 3 0":
        (0, "6c482544b21a5ed79edfb7967d9a1e740a730cb27fa2a2ad22e66a8a7d17a8d7"),
    "tables T 10 --legs recurrence,closed,series,brute":
        (0, "a5b639de072c0af3ce657d6c5533cf5a5769a3430cdfb362a20e76f5bf8cc289"),
    "tables S 6 6 --legs recurrence,series":
        (0, "22d90c977e85a2e68c61ebab7fda2423cf92ddba1bc86a61f6ce72c97ae23858"),
    "tables V 3 3":
        (0, "32b36482a8fdf565915f42282795a7f460c0d15dae41ee33eb0d78220bd779ad"),
    # the 3 x 3 integer grid, with eight collinear triples and cocircular
    # quadruples such as the corners of each unit square; recorded before
    # the predicate kernel was rebuilt on orientation signs
    "lattice --input grid9.json --format json":
        (0, "c7e652cc555df9ca963503cf2576f76603e1ba25d20689904f140ad3a565d4b4"),
}

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("command", list(EXPORT_DIGESTS))
def test_export_bytes_pinned(capsys, monkeypatch, command):
    monkeypatch.chdir(DATA)  # --input paths are relative to tests/data
    code, out, err = run(capsys, *command.split())
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXPORT_DIGESTS[command]


def test_scd_checks_caps_before_building_chains(capsys, monkeypatch):
    def no_chains(m, n):
        raise AssertionError("chains built for an instance past the caps")

    monkeypatch.setattr("nclat.cli.scd_U", no_chains)
    code, out, err = run(capsys, "scd", "U", "12", "12")
    assert code == 4 and out == ""
    assert err.startswith("error: TooLarge: ") and err.count("\n") == 1


def test_scd_assembly_failure_exit_code(capsys, monkeypatch):
    def stuck(m, n):
        raise AssemblyFailure("greedy chain walk stuck")

    monkeypatch.setattr("nclat.cli.scd_S", stuck)
    code, out, err = run(capsys, "scd", "S", "1", "1")
    assert code == 5 and out == ""
    assert err == "error: AssemblyFailure: greedy chain walk stuck\n"


@pytest.mark.parametrize("n", range(7))
def test_scd_S0_walks_its_host(capsys, monkeypatch, n):
    # NC(S_{0,n}) is NC(Q_{n+2}) element for element, so the chains walk
    # the host lattice the command builds, the only one it needs
    built = []
    real = nclat.cli.build_nc_poset

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("nclat.cli.build_nc_poset", counted)
    monkeypatch.setattr("nclat.scd.build_nc_poset", counted)
    monkeypatch.setattr("nclat.scd._LATTICES", {})
    nclat.scd._family_chains.cache_clear()
    nclat.scd._classical_chains.cache_clear()
    code, out, err = run(capsys, "scd", "S", "0", str(n))
    assert code == 0 and err == ""
    assert len(built) == 1
    monkeypatch.undo()
    chains = nclat.scd.scd_S(0, n)
    expected = [[[list(b) for b in pi.blocks] for pi in ch] for ch in chains]
    assert json.loads(out)["chains"] == expected


def test_scd_arity(capsys):
    code, out, err = run(capsys, "scd", "T", "3", "2")
    assert code == 2
    code, out, err = run(capsys, "scd", "U", "3")
    assert code == 2
    code, out, err = run(capsys, "scd", "P", "3")
    assert code == 2


TABLES_U_2_2 = (
    "# leg: recurrence\n"
    "m\\n,0,1,2\n"
    "0,0,1,2\n"
    "1,1,2,5\n"
    "2,2,5,14\n"
    "# leg: series\n"
    "m\\n,0,1,2\n"
    "0,0,1,2\n"
    "1,1,2,5\n"
    "2,2,5,14\n"
    "# leg: brute\n"
    "m\\n,0,1,2\n"
    "0,0,1,2\n"
    "1,1,2,5\n"
    "2,2,5,14\n"
    "cross-check: all 3 legs agree\n"
)

TABLES_T_4_ALL_LEGS = (
    "# leg: recurrence\n"
    "n,0,1,2,3,4\n"
    "t,1,2,5,12,28\n"
    "# leg: closed\n"
    "n,0,1,2,3,4\n"
    "t,1,2,5,12,28\n"
    "# leg: series\n"
    "n,0,1,2,3,4\n"
    "t,1,2,5,12,28\n"
    "# leg: brute\n"
    "n,0,1,2,3,4\n"
    "t,1,2,5,12,28\n"
    "cross-check: all 4 legs agree\n"
)


def test_tables_agreement(capsys):
    code, out, err = run(capsys, "tables", "U", "2", "2")
    assert code == 0 and err == ""
    assert out == TABLES_U_2_2

    code, out, err = run(capsys, "tables", "U", "4", "4")
    assert code == 0
    assert "cross-check: all 3 legs agree" in out
    assert "4,8,28,94,289,838" in out

    code, out, err = run(capsys, "tables", "V", "8", "8", "--legs", "recurrence,series")
    assert code == 0

    code, out, err = run(capsys, "tables", "T", "4", "--legs", "recurrence,closed,series,brute")
    assert code == 0 and err == ""
    assert out == TABLES_T_4_ALL_LEGS

    code, out, err = run(capsys, "tables", "T", "6", "--legs", "recurrence,closed,series,brute")
    assert code == 0
    assert "t,1,2,5,12,28,64,144" in out


def test_tables_mismatch_reported(capsys, monkeypatch):
    import nclat.enumeration as enum_mod

    def crooked(max_m, max_n):
        rows = [[0] * (max_n + 1) for _ in range(max_m + 1)]
        return rows

    monkeypatch.setattr(enum_mod, "u_table", crooked)
    code, out, err = run(capsys, "tables", "U", "2", "2", "--legs", "recurrence,series")
    assert code == 1
    assert "mismatch recurrence vs series" in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter prints integers of any length",
)
def test_tables_entry_past_digit_limit(capsys):
    # the closed form's last entry at T 2200 has about 665 digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "tables", "T", "2200", "--legs", "closed")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 4 and out == ""
    assert err.startswith("error: TooLarge: ") and err.count("\n") == 1


def test_tables_brute_point_cap_checked_before_any_leg(capsys, monkeypatch):
    # unpatched, the series leg of T 10000 would run before the brute leg
    # reaches its point cap
    def no_series(order):
        raise AssertionError("series leg ran past the brute leg's point cap")

    monkeypatch.setattr("nclat.enumeration.series_T", no_series)
    code, out, err = run(capsys, "tables", "T", "10000")
    assert code == 4 and out == ""
    assert err == "error: TooLarge: configuration has 10001 points, cap is 12\n"


@pytest.mark.parametrize("argv, message", [
    ("T 10001 --legs series", "table extent is 10001, series cap is 10000"),
    ("U 2000 2000 --legs recurrence", "table extent is 2000, recurrence cap is 200"),
    ("S 1000 1000 --legs series", "table extent is 1000, series cap is 200"),
    ("V 3 201 --legs series,recurrence", "table extent is 201, series cap is 200"),
    ("T 10001 --legs closed", "table extent is 10001, closed cap is 10000"),
])
def test_tables_extent_caps_checked_before_any_leg(capsys, monkeypatch, argv, message):
    def no_leg(*args, **kwargs):
        raise AssertionError("a leg ran past its extent cap")

    for leg in ("u_table", "v_table", "s_table", "series_table", "series_T",
                "t_sequence", "t_closed"):
        monkeypatch.setattr(f"nclat.enumeration.{leg}", no_leg)
    code, out, err = run(capsys, "tables", *argv.split())
    assert code == 4 and out == ""
    assert err == f"error: TooLarge: {message}\n"


def test_tables_bad_leg(capsys):
    code, out, err = run(capsys, "tables", "U", "2", "2", "--legs", "guesswork")
    assert code == 2
    code, out, err = run(capsys, "tables", "U", "2", "2", "--legs", "closed")
    assert code == 2  # closed form only exists for T


def test_tables_rejects_negative_extent_and_repeated_leg(capsys):
    code, out, err = run(capsys, "tables", "T", "-1", "--legs", "brute")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "tables", "U", "2", "2", "--legs", "recurrence,recurrence")
    assert code == 2 and out == ""


def test_verify_paper_subset(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "8")
    assert code == 0
    assert out.startswith("PASS criterion  8")
    code, out, err = run(capsys, "verify-paper", "--only", "series-identities,9")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_verify_paper_bad_selector(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "nonsense")
    assert code == 2


def test_empty_selectors_are_usage_errors(capsys):
    code, out, err = run(capsys, "verify-paper", "--only", "")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "check", "Q", "3", "--properties", "")
    assert code == 2 and out == ""
    code, out, err = run(capsys, "tables", "U", "2", "2", "--legs", "")
    assert code == 2 and out == ""


def test_stdout_deterministic(capsys):
    _, first, _ = run(capsys, "lattice", "S", "1", "1", "--format", "json")
    _, second, _ = run(capsys, "lattice", "S", "1", "1", "--format", "json")
    assert first == second
    _, a, _ = run(capsys, "scd", "U", "2", "2")
    _, b, _ = run(capsys, "scd", "U", "2", "2")
    assert a == b


def test_cli_runs_without_numpy():
    # the package has no runtime dependency; a fresh interpreter importing
    # the CLI and running a command must not load numpy
    code = (
        "import sys, nclat.cli\n"
        "code = nclat.cli.main(['tables', 'U', '2', '2'])\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nclat.__path__[0]))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


@pytest.mark.parametrize("number, name", [
    (errno.ENOSPC, "OSError"),
    (errno.EPIPE, "BrokenPipeError"),  # a stdout with no descriptor to redirect
])
def test_failed_stdout_write_exits_3_in_process(capsys, monkeypatch, number, name):
    class FailingStdout(io.StringIO):
        def write(self, text):
            raise OSError(number, os.strerror(number))

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    code = main(["config", "U", "1", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"error: {name}: [Errno {number}] {os.strerror(number)}\n"


def _run_to(stdout, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nclat.__path__[0]))
    return subprocess.run(
        [sys.executable, "-m", "nclat.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def _one_error_line(res):
    assert res.returncode == 3, res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr
    assert "Exception ignored" not in res.stderr


def test_closed_pipe_on_stdout_exits_3():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = _run_to(write_end, "check", "Q", "5")
    finally:
        os.close(write_end)
    _one_error_line(res)
    assert res.stderr.startswith("error: BrokenPipeError: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("lattice", "Q", "9", "--format", "dot"),
    ("tables", "S", "60", "60", "--legs", "recurrence"),
], ids=" ".join)
def test_reader_closing_early_on_a_large_output_exits_3(argv, unbuffered):
    # 778,486 and 117,595 bytes.  Unbuffered, stdout's text layer drops the
    # count of a short write to the raw file, so one write of the whole text
    # into a pipe whose reader closes ended with exit 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(nclat.__path__[0]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "nclat.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    res = subprocess.CompletedProcess(argv, proc.wait(timeout=120), None, err)
    _one_error_line(res)
    assert res.stderr.startswith("error: BrokenPipeError: ")


def test_closed_pipe_points_stdout_at_the_null_device(capsys, monkeypatch):
    # after a BrokenPipeError the stdout descriptor is the null device, so
    # the flush at exit cannot hit the closed pipe again
    read_end, write_end = os.pipe()
    os.close(read_end)
    out = open(write_end, "w", encoding="utf-8", closefd=False)
    monkeypatch.setattr(sys, "stdout", out)
    try:
        assert main(["lattice", "Q", "9", "--format", "json"]) == 3
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        out.close()
        os.close(write_end)
    assert capsys.readouterr().err.startswith("error: BrokenPipeError: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_on_stdout_exits_3():
    with open("/dev/full", "w") as full:
        res = _run_to(full, "lattice", "Q", "6", "--format", "json")
    _one_error_line(res)
    assert res.stderr.startswith("error: OSError: ")
