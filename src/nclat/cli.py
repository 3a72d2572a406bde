"""Command line front end.

Subcommands: config, lattice, check, scd, tables, verify-paper.  Output is
deterministic for fixed arguments; nothing is written to stderr on success.

Exit codes: 0 success, 1 a requested check or comparison failed, 2 argument
errors, 3 file or parse errors (also an --input file past 1 MiB or a failed
write to stdout), 4 size cap exceeded (or a table entry or coordinate past
the interpreter's int-to-str digit limit), 5 chain assembly failure (an SCD
builder got stuck), 6 undecided: the self-duality search used up its fixed
work budget (poset.ISOMORPHISM_BUDGET) without a verdict.
Each size bound is one constant, and none is an option.  The element cap
(partition.DEFAULT_LATTICE_CAP, 20000) is a lattice's one size bound: the
enumeration stops as soon as it is passed, and as n points have at least
2^(n-1) noncrossing partitions, lattice, check and scd refuse more than
partition.LATTICE_POINTS (15) points.  config, lattice, check and scd
compare a family's point total with it before any point is built, so no
command builds a family of more than 15 points.
tables refuses a brute leg past partition.DEFAULT_ENUM_CAP (12) points and
any other leg past its extent cap in enumeration.TABLE_LEGS, before any leg
runs.  scd takes its lattice from scd.standard_poset before any chain is
built, so an instance past the caps exits 4 without building chains, and
the chain builders, which read the same cache, do not build it again.

Importing this module loads nothing from the standard library beyond what
argparse, fractions and json load, because every command pays for its
imports before it starts.
"""

import argparse
import io
import json
import os
import sys

from .acceptance import run_criteria
from .enumeration import CountTable, cross_check
from .errors import (
    AssemblyFailure,
    InvalidInput,
    NclatError,
    TooLarge,
    Undecided,
)
from .fixtures import BUILTIN, load_builtin
from .geometry import (
    FAMILIES,
    config_from_json,
    config_to_json,
    point_count,
    standard_config,
)
from .partition import LATTICE_POINTS, _require_points
from .poset import (
    build_nc_poset,
    gradedness,
    is_self_dual,
    lattice_check,
    poset_to_dot,
    poset_to_json_obj,
    rank_vector,
)
from .scd import scd_S, scd_T, scd_U, scd_V, standard_poset, verify_scd

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FILE = 3
EXIT_TOO_LARGE = 4
EXIT_ASSEMBLY = 5
EXIT_UNDECIDED = 6

# package errors with their own exit code; any other NclatError exits 2
ERROR_EXITS = {
    TooLarge: EXIT_TOO_LARGE,
    AssemblyFailure: EXIT_ASSEMBLY,
    Undecided: EXIT_UNDECIDED,
}

CHECK_PROPERTIES = ("graded", "rank-symmetric", "self-dual", "lattice")

INPUT_LIMIT = 1 << 20  # characters read of an --input file, which may be endless


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# configuration sources

def _add_source_args(sub):
    sub.add_argument("family", nargs="?", help="standard family: P Q T U V S")
    sub.add_argument("m", nargs="?", type=int, help="first size parameter")
    sub.add_argument("n", nargs="?", type=int, help="second size parameter (U/V/S)")
    sub.add_argument("--input", help="read the configuration from a JSON file")
    sub.add_argument(
        "--fixture",
        choices=BUILTIN,
        help="use a bundled example configuration",
    )


def _load_config(args):
    given = [args.family is not None, args.input is not None, args.fixture is not None]
    if sum(given) != 1:
        raise _CliError(
            EXIT_USAGE, "give exactly one of: a family with sizes, --input, --fixture"
        )
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read(INPUT_LIMIT + 1)
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(EXIT_FILE, f"cannot read {args.input}: {exc}")
        if len(text) > INPUT_LIMIT:
            raise _CliError(
                EXIT_FILE, f"{args.input} is longer than {INPUT_LIMIT} characters"
            )
        try:
            return config_from_json(text)
        except NclatError as exc:
            raise _CliError(EXIT_FILE, f"{type(exc).__name__}: {exc}")
    if args.fixture is not None:
        return load_builtin(args.fixture)
    fam = args.family.upper()
    if fam not in FAMILIES:
        raise _CliError(
            EXIT_USAGE, f"unknown family {args.family!r}; choose from {' '.join(FAMILIES)}"
        )
    if args.m is None:
        raise InvalidInput(f"family {fam} needs a size parameter")
    # the point total is compared with the cap before any point is built
    _require_points(point_count(fam, args.m, args.n), LATTICE_POINTS)
    return standard_config(fam, args.m, args.n)


def _source_name(args) -> str:
    if args.input is not None:
        base = os.path.basename(args.input)
        return base[:-5] if base.endswith(".json") else base
    if args.fixture is not None:
        return args.fixture
    parts = [args.family.upper(), str(args.m)]
    if args.n is not None:
        parts.append(str(args.n))
    return "_".join(parts)


def _emit(text: str, end: str = "\n") -> None:
    """Write text, then end, to stdout, in pieces of at most
    io.DEFAULT_BUFFER_SIZE characters.  With stdout unbuffered (python -u,
    PYTHONUNBUFFERED), TextIOWrapper hands each write to the raw file and
    drops the count of a short write, so one large write into a pipe whose
    reader closes takes part of the text and raises nothing; in pieces, the
    write after the short one raises BrokenPipeError."""
    step = io.DEFAULT_BUFFER_SIZE
    for k in range(0, len(text), step):
        sys.stdout.write(text[k:k + step])
    sys.stdout.write(end)


def _dump(obj, pretty: bool) -> str:
    # obj is a fresh tree of dicts, lists, tuples, ints and strings: no cycles
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(obj, check_circular=False, **layout)


# ---------------------------------------------------------------------------
# subcommands

def _past_digit_limit(what: str) -> TooLarge:
    return TooLarge(
        f"{what} has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for printing an integer"
    )


def cmd_config(args) -> int:
    cfg = _load_config(args)
    try:
        text = config_to_json(cfg)
    except ValueError:
        raise _past_digit_limit("a coordinate") from None
    _emit(text)
    return EXIT_OK


def cmd_lattice(args) -> int:
    cfg = _load_config(args)
    poset = build_nc_poset(cfg)
    if args.format == "dot":
        _emit(poset_to_dot(poset, title=_source_name(args)), end="")
    else:
        _emit(_dump(poset_to_json_obj(poset), args.pretty))
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = _load_config(args)
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    if not props:
        raise _CliError(EXIT_USAGE, "no properties requested")
    for p in props:
        if p not in CHECK_PROPERTIES:
            raise _CliError(
                EXIT_USAGE,
                f"unknown property {p!r}; choose from {', '.join(CHECK_PROPERTIES)}",
            )
    poset = build_nc_poset(cfg)
    all_ok = True
    for prop in CHECK_PROPERTIES:
        if prop not in props:
            continue
        if prop == "graded":
            witness = gradedness(poset).witness
            ok = witness is None
            extra = "" if ok else f" witness cover {witness[0]} -> {witness[1]}"
        elif prop == "rank-symmetric":
            if gradedness(poset).is_graded:
                vec = rank_vector(poset)
                ok = vec == vec[::-1]
                extra = f" rank vector {vec}"
            else:
                ok = False
                extra = " not graded, so no rank vector"
        elif prop == "self-dual":
            ok = is_self_dual(poset)
            extra = ""
        else:
            ok, detail = lattice_check(poset)
            extra = "" if ok else f" {detail}"
        all_ok = all_ok and ok
        _emit(f"{prop}: {'PASS' if ok else 'FAIL'}{extra}")
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_scd(args) -> int:
    fam = args.family.upper()
    builders = {"T": scd_T, "U": scd_U, "V": scd_V, "S": scd_S}
    if fam not in builders:
        raise _CliError(EXIT_USAGE, "scd supports families T, U, V, S")
    # the arity and the caps are checked before any chain is built
    poset = standard_poset(fam, args.m, args.n)
    sizes = (args.m,) if args.n is None else (args.m, args.n)
    chains = builders[fam](*sizes)
    res = verify_scd(poset, chains)
    report = {
        "family": fam,
        "m": args.m,
        "n": args.n,
        "verified": res.ok,
        "reason": res.reason,
        "chain_count": res.chain_count,
        "element_count": res.element_count,
        "chain_lengths": {str(k): res.lengths[k] for k in sorted(res.lengths)},
        "chains": [[pi.blocks for pi in chain] for chain in chains],
    }
    _emit(_dump(report, args.pretty))
    return EXIT_OK if res.ok else EXIT_FAIL


def cmd_tables(args) -> int:
    legs = [s.strip() for s in args.legs.split(",") if s.strip()]
    cc = cross_check(args.family.upper(), args.m, args.n, legs=legs)
    # the whole text is formatted before any of it is written, so an entry
    # past the interpreter's int-to-str digit limit leaves stdout empty
    try:
        text = "".join(
            f"# leg: {leg}\n" + CountTable(cc.family, leg, rows).to_csv()
            for leg, rows in cc.tables.items()
        ) + "".join(
            f"mismatch {base} vs {other} at m={m} n={n}: {a} != {b}\n"
            for base, other, m, n, a, b in cc.mismatches
        )
    except ValueError:
        raise _past_digit_limit("a table entry") from None
    _emit(text, end="")
    if not cc.ok:
        return EXIT_FAIL
    if len(legs) > 1:
        _emit(f"cross-check: all {len(legs)} legs agree")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    only = None
    if args.only is not None:
        only = args.only.split(",")
    try:
        results = run_criteria(only=only)
    except InvalidInput as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    for res in results:
        _emit(res.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser plumbing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nclat",
        description="Noncrossing partition lattices of planar configurations.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("config", help="emit a configuration as JSON")
    _add_source_args(p)
    p.set_defaults(func=cmd_config)

    p = subs.add_parser("lattice", help="export the lattice (DOT or JSON)")
    _add_source_args(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--pretty", action="store_true", help="indent JSON output")
    p.set_defaults(func=cmd_lattice)

    p = subs.add_parser("check", help="check order properties, one PASS/FAIL per line")
    _add_source_args(p)
    p.add_argument(
        "--properties",
        default=",".join(CHECK_PROPERTIES),
        help="comma list from: " + ", ".join(CHECK_PROPERTIES),
    )
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("scd", help="build and verify a symmetric chain decomposition")
    p.add_argument("family", help="family: T U V S")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--pretty", action="store_true", help="indent JSON output")
    p.set_defaults(func=cmd_scd)

    p = subs.add_parser("tables", help="emit count tables as CSV and cross-check legs")
    p.add_argument("family", help="family: T U V S")
    p.add_argument("m", type=int, help="row extent (or sequence extent for T)")
    p.add_argument("n", type=int, nargs="?", help="column extent")
    p.add_argument(
        "--legs",
        default="recurrence,series,brute",
        help="comma list from: recurrence, series, brute (plus closed for T)",
    )
    p.set_defaults(func=cmd_tables)

    p = subs.add_parser("verify-paper", help="run the acceptance criteria suite")
    p.add_argument(
        "--only",
        help="comma list of criterion numbers or name prefixes (e.g. tables,9)",
    )
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        # a failed write to stdout surfaces here at the latest
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except NclatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ERROR_EXITS.get(type(exc), EXIT_USAGE)
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # point stdout at the null device, so that the flush at exit does
            # not hit the closed pipe again
            try:
                fd = sys.stdout.fileno()
            except (OSError, ValueError):  # no descriptor, as under captured output
                return EXIT_FILE
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
