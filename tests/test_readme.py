"""The README's library quick start runs and prints what it says, and
`import nclat` binds exactly the names that example imports from `nclat`:
every other name is imported from its module.

Run as a script, this file runs the example against the nclat the
interpreter imports without the source tree, that is, the installed one:

    python tests/test_readme.py
"""

import contextlib
import io
import os
import re
import types

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
EXPECTED = ["[1, 9, 17, 9, 1]", "True", "838", "True", "True"]


def quick_start():
    """The python block under the README's "## Library quick start"."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library quick start\n"):]
    return re.search(r"```python\n(.*?)\n```", section, re.S).group(1)


def imported_names(code):
    names = re.search(r"from nclat import \(([^)]*)\)", code).group(1)
    return sorted(n.strip() for n in names.split(",") if n.strip())


def public_names():
    import nclat

    return sorted(
        name for name, value in vars(nclat).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )


def run_example(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    return out.getvalue().splitlines()


def test_quick_start_prints_what_it_says():
    assert run_example(quick_start()) == EXPECTED


def test_nclat_binds_only_the_quick_start_names():
    assert public_names() == imported_names(quick_start())


if __name__ == "__main__":
    import sys

    code = quick_start()
    lines = run_example(code)
    print("\n".join(lines))
    names, bound = imported_names(code), public_names()
    if bound != names:
        print("nclat binds", bound, "but the README imports", names)
    sys.exit(0 if lines == EXPECTED and bound == names else 1)
