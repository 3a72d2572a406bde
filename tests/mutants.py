"""Mutation checks: each listed edit to the package must fail named tests.

Each entry of MUTANTS is (file under src/nclat, old text, new text, tests
that must fail).  For each entry the script copies src/ to a temporary
directory, checks that old occurs exactly once in the file, replaces it with
new, and runs only the named tests against the copy.  The mutant is killed
when that run fails.  Before any mutant, the named tests of every entry run
once against an unchanged copy and must pass, so that a kill is the edit's
doing.  Usage, from anywhere (needs pytest and hypothesis):

    python tests/mutants.py

It prints one line per mutant and exits 0 when every mutant is killed, 1
otherwise.  A run takes a pytest start-up per mutant, so it is a CI step,
not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    (
        "enumeration.py",
        "inv[i][j] = -sum(",
        "inv[i][j] = sum(",
        ["tests/test_enumeration.py::test_bivariate_geometric",
         "tests/test_acceptance.py::test_criterion_08_series_identities"],
    ),
    (
        "enumeration.py",
        "dst[j] += c * src[j - q]",
        "dst[j] += c * src[j]",
        ["tests/test_enumeration.py::test_closed_form_series_identities",
         "tests/test_acceptance.py::test_criterion_08_series_identities"],
    ),
    (
        "enumeration.py",
        '"series": 10000, "brute"',
        '"series": 10001, "brute"',
        ["tests/test_enumeration.py::test_extent_caps_admit_their_bound_and_nothing_past_it",
         "tests/test_cli.py::test_tables_extent_caps_checked_before_any_leg"],
    ),
    (
        "enumeration.py",
        '"series": 10000, "brute"',
        '"series": 2000, "brute"',
        ["tests/test_enumeration.py::test_t_legs_agree_at_the_extent_cap"],
    ),
    (
        "enumeration.py",
        "2 * prev[n]",
        "prev[n]",
        ["tests/test_enumeration.py::test_recurrence_tables_match_frozen",
         "tests/test_enumeration.py::test_one_off_line_row_embeds_in_cone_table"],
    ),
    (
        "enumeration.py",
        "tail[n:0:-1]",
        "tail[n - 1::-1]",
        ["tests/test_enumeration.py::test_recurrence_tables_match_frozen",
         "tests/test_enumeration.py::test_one_off_line_row_embeds_in_cone_table"],
    ),
    (
        "enumeration.py",
        "if a != b:",
        "if a == b:",
        ["tests/test_enumeration.py::test_cross_checks_pass",
         "tests/test_cli.py::test_tables_mismatch_reported"],
    ),
    (
        "enumeration.py",
        "partition.DEFAULT_ENUM_CAP)",
        "partition.DEFAULT_ENUM_CAP + 1)",
        ["tests/test_cli.py::test_enum_cap_flag"],
    ),
    (
        "enumeration.py",
        "sizes[len(c)] for c in cells",
        "sizes[len(c) - 1] for c in cells",
        ["tests/test_enumeration.py::test_brute_rows_match_their_cells_counted_one_by_one"],
    ),
    (
        "enumeration.py",
        "if len(new) != 1 or len(cell) != len(prev) + 1:",
        "if False:",
        ["tests/test_enumeration.py::test_nesting_check_refuses_cells_that_do_not_add_one_point"],
    ),
    (
        "geometry.py",
        "meets.append(crossing | touch | on[i] | on[j])",
        "meets.append(crossing | touch)",
        ["tests/test_cli.py::test_export_bytes_pinned"
         "[lattice --fixture triangle-midpoints --format json]"],
    ),
    (
        "geometry.py",
        "touch |= ends_at[q]",
        "pass",
        ["tests/test_predicate_kernel.py::"
         "test_kernel_tables_match_oracle_on_standard_configurations"],
    ),
    (
        "geometry.py",
        "if size <= limit:",
        "if size <= limit + 1:",
        ["tests/test_geometry.py::test_rational_literal_bound_follows_the_digit_limit"],
    ),
    (
        "partition.py",
        "if (g_closure & placed) ^ pts or ",
        "if ",
        ["tests/test_predicate_kernel.py::test_element_lists_unchanged"],
    ),
    (
        "partition.py",
        " or g_meets & (pairs_all ^ pairs):",
        ":",
        ["tests/test_predicate_kernel.py::test_element_lists_unchanged"],
    ),
    (
        "partition.py",
        "if not bit & closure_all:",
        "if True:",
        ["tests/test_predicate_kernel.py::test_element_lists_unchanged"],
    ),
    (
        # the depth tally one depth deeper
        "partition.py",
        "sizes[i] += 1",
        "sizes[i + 1] += 1",
        ["tests/test_partition.py::test_count_matches_enumeration"],
    ),
    (
        "partition.py",
        "verdict = kernel.partitions.get(pi.blocks)",
        "verdict = kernel.partitions.get(len(pi.blocks))",
        ["tests/test_predicate_kernel.py::test_repeated_verdict_runs_no_hull_test"],
    ),
    (
        "partition.py",
        "verdict = kernel.partitions.get(pi.blocks)\n"
        "    if verdict is None:\n"
        "        meet = kernel.hulls_meet\n"
        "        masks = block_masks(pi)\n"
        "        verdict = kernel.partitions[pi.blocks] = ",
        "verdict = kernel.partitions.get(len(pi.blocks))\n"
        "    if verdict is None:\n"
        "        meet = kernel.hulls_meet\n"
        "        masks = block_masks(pi)\n"
        "        verdict = kernel.partitions[len(pi.blocks)] = ",
        ["tests/test_predicate_kernel.py::test_remembered_verdicts_match_the_pairwise_test[P7]"],
    ),
    (
        "partition.py",
        "LATTICE_POINTS = DEFAULT_LATTICE_CAP.bit_length()",
        "LATTICE_POINTS = DEFAULT_LATTICE_CAP.bit_length() - 1",
        ["tests/test_cli.py::test_lattice_of_the_most_points_the_element_cap_admits"],
    ),
    (
        "partition.py",
        "LATTICE_POINTS = DEFAULT_LATTICE_CAP.bit_length()",
        "LATTICE_POINTS = DEFAULT_LATTICE_CAP.bit_length() + 1",
        ["tests/test_cli.py::test_point_cap_checked_before_points_are_built"],
    ),
    (
        "poset.py",
        "    if len(tops) > 1:\n",
        "    if False:\n",
        ["tests/test_poset.py::test_fast_lattice_verdict_needs_meet_irreducibles_and_a_top"],
    ),
    (
        # the lattice pass labelled by element index, not by position
        "poset.py",
        "    table = _closures(lower, order, lambda i: 1 << pos[i])\n"
        "    down = [table[i] for i in order]\n",
        "    table = _closures(lower, order, lambda i: 1 << i)\n"
        "    down = table\n",
        ["tests/test_poset.py::test_fast_lattice_verdict_matches_naive_definition[pinwheel]"],
    ),
    (
        "poset.py",
        "k = (c ^ (c & below)).bit_count()",
        "k = c.bit_count()",
        ["tests/test_poset.py::test_lattice_check_names_the_first_failure_of_its_one_pass"],
    ),
    (
        "poset.py",
        "int(text[npairs - 1 - p::npairs], 2)",
        "int(text[p::npairs], 2)",
        ["tests/test_acceptance.py::test_criterion_05_gradedness"],
    ),
    (
        "poset.py",
        "                    left ^= left & above\n",
        "",
        ["tests/test_acceptance.py::test_criterion_05_gradedness"],
    ),
    (
        # the holder masks shifted one bit past the layers below: every
        # up-set read one element low
        "poset.py",
        "above = [h >> base for h in holders]",
        "above = [h >> base + 1 for h in holders]",
        ["tests/test_poset.py::test_build_matches_refinement"],
    ),
    (
        "poset.py",
        "            spent += len(col)\n",
        "            spent += 0\n",
        ["tests/test_poset.py::test_isomorphism_search_spends_a_pinned_number_of_signatures"],
    ),
    (
        # the root colours J and M alike
        "poset.py",
        "        side += [0] * len(J) + [1] * len(rows)\n",
        "        side += [0] * (len(J) + len(rows))\n",
        ["tests/test_poset.py::test_unbalanced_root_colouring_is_refused_before_refinement"],
    ),
    (
        "poset.py",
        "        raise InvalidInput(f\"no isomorphism found, and the poset is not a lattice: "
        "{detail}\")\n",
        "        return None\n",
        ["tests/test_poset.py::test_no_map_on_a_non_lattice_is_no_verdict"],
    ),
    (
        # every refutation runs a lattice pass
        "poset.py",
        "    tried = False\n",
        "    tried = True\n",
        ["tests/test_poset.py::test_lattice_verdict_is_decided_once_per_poset"],
    ),
    (
        # a map that fails its check taken for a proof on any poset
        "poset.py",
        "            tried = True\n",
        "",
        ["tests/test_poset.py::test_no_map_on_a_non_lattice_is_no_verdict"],
    ),
    (
        # alpha read from a's meet-irreducible vertices
        "poset.py",
        "zip(ja, col[:len(ja)])",
        "zip(ja, col[len(ja):half])",
        ["tests/test_poset.py::test_self_duality"],
    ),
    (
        # incidence read strictly, j < m: a doubly irreducible element
        # drops out of its own context row
        "poset.py",
        "        rows = [down[i] for i, above",
        "        rows = [down[i] ^ bit.get(i, 0) for i, above",
        ["tests/test_poset.py::test_doubly_irreducible_elements_keep_their_own_incidence"],
    ),
    (
        # a round that leaves a colour unbalanced goes on
        "poset.py",
        "        while Counter(col[:half]) == Counter(col[half:]):\n",
        "        while True:\n",
        ["tests/test_poset.py::test_isomorphism_search_spends_a_pinned_number_of_signatures"],
    ),
    (
        "poset.py",
        "masks[x] |= masks.pop(y)",
        "masks.pop(y)",
        ["tests/test_poset.py::test_meet_join_against_brute_force"],
    ),
    (
        # the same joins from a hull-test closure over both arguments' blocks
        "poset.py",
        "            if m & b:\n",
        "            if False:\n",
        ["tests/test_poset.py::test_join_spends_one_hull_test_on_crossing_diagonals"],
    ),
    (
        # a cover between equal ranks breaks the order linear_extension() gives
        "poset.py",
        "if not ranks[i] < ranks[j]:",
        "if not ranks[i] <= ranks[j]:",
        ["tests/test_poset.py::test_poset_rejects_covers_that_break_its_rank_contract"],
    ),
    (
        # the last rank jump recorded as the gradedness witness
        "poset.py",
        "if jump is None and ranks[j] - ranks[i] != 1:",
        "if ranks[j] - ranks[i] != 1:",
        ["tests/test_poset.py::test_gradedness_witness_is_the_first_rank_jumping_cover"],
    ),
    (
        # a moved hexagon vertex that keeps the lattice's order type
        "fixtures.py",
        '"-7/5"',
        '"-7/4"',
        ["tests/test_cli.py::test_export_bytes_pinned[config --fixture hexagon6]"],
    ),
    (
        "acceptance.py",
        "if host.up_mask(h) & keep != image:",
        "if False:",
        ["tests/test_acceptance.py::test_criterion_07_checks_each_part_map"],
    ),
    (
        # two labellings of one convex quadrilateral share a key
        "acceptance.py",
        "        tuple(kernel.meets),\n",
        "",
        ["tests/test_acceptance.py::test_lattice_key_is_exact"],
    ),
    (
        # an ungraded verdict reported only for the first instance of its key
        "acceptance.py",
        "                verdicts[key] = info\n"
        "            info = verdicts[key]\n",
        "                verdicts[key] = info\n"
        "            else:\n"
        "                continue\n",
        ["tests/test_acceptance.py::test_criterion_05_builds_a_shared_lattice_once"],
    ),
    (
        # a configuration held by a host with another point in its hull
        "acceptance.py",
        "    return host.kernel.block(mask)[0] == mask\n",
        "    return True\n",
        ["tests/test_acceptance.py::test_interval_needs_no_other_host_point_in_the_hull"],
    ),
    (
        # an ungraded host lends its verdict
        "acceptance.py",
        "            if info.is_graded:\n",
        "            if True:\n",
        ["tests/test_acceptance.py::test_criterion_05_builds_what_an_ungraded_host_contains"],
    ),
    (
        # a mirrored instance takes an ungraded verdict and its witness too
        "acceptance.py",
        "if info is None or not info.is_graded:",
        "if info is None:",
        ["tests/test_acceptance.py::"
         "test_criterion_05_names_each_mirrored_instance_by_its_own_witness"],
    ),
    (
        "scd.py",
        "    poset = _LATTICES.get(config.points)\n"
        "    if poset is None:\n"
        "        poset = _LATTICES[config.points] = ",
        "    poset = _LATTICES.get(len(config.points))\n"
        "    if poset is None:\n"
        "        poset = _LATTICES[len(config.points)] = ",
        ["tests/test_acceptance.py::test_criteria_6_7_9_10_share_the_standard_lattices"],
    ),
    (
        "cli.py",
        "    Undecided: EXIT_UNDECIDED,",
        "    Undecided: EXIT_USAGE,",
        ["tests/test_cli.py::test_check_undecided_exit_code"],
    ),
    (
        "cli.py",
        "    TooLarge: EXIT_TOO_LARGE,",
        "    TooLarge: EXIT_USAGE,",
        ["tests/test_cli.py::test_lattice_cap"],
    ),
    (
        "cli.py",
        "    AssemblyFailure: EXIT_ASSEMBLY,",
        "    AssemblyFailure: EXIT_USAGE,",
        ["tests/test_cli.py::test_scd_assembly_failure_exit_code"],
    ),
    (
        "cli.py",
        'raise _CliError(EXIT_FILE, f"cannot read',
        'raise _CliError(EXIT_USAGE, f"cannot read',
        ["tests/test_cli.py::test_config_missing_file"],
    ),
    (
        "cli.py",
        "ERROR_EXITS.get(type(exc), EXIT_USAGE)",
        "ERROR_EXITS.get(type(exc), EXIT_FAIL)",
        ["tests/test_cli.py::test_scd_arity"],
    ),
    (
        "cli.py",
        "    step = io.DEFAULT_BUFFER_SIZE\n",
        "    step = max(len(text), 1)\n",
        ["tests/test_cli.py::test_reader_closing_early_on_a_large_output_exits_3"],
    ),
    (
        "cli.py",
        "            os.dup2(devnull, fd)\n",
        "",
        ["tests/test_cli.py::test_closed_pipe_points_stdout_at_the_null_device"],
    ),
]


def run_tests(src, tests):
    """pytest's exit code for tests, run with the package imported from src."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_src(tmp):
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def mutate(src, fname, old, new):
    path = os.path.join(src, "nclat", fname)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    found = text.count(old)
    if found != 1:
        raise SystemExit(f"{fname}: {old!r} occurs {found} times, not once")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new))


def main():
    named = sorted({test for *_, tests in MUTANTS for test in tests})
    with tempfile.TemporaryDirectory() as tmp:
        code = run_tests(copy_src(tmp), named)
    if code != 0:
        print(f"the named tests fail on the unchanged source (pytest exit {code})")
        return 1
    survivors = 0
    for fname, old, new, tests in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            mutate(src, fname, old, new)
            code = run_tests(src, tests)
        # pytest exits 1 when a test failed; any other code is no verdict
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        survivors += code != 1
        print(f"{verdict}: {fname} {old.strip()!r} -> {new.strip()!r}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
