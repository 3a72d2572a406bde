"""Every CLI command is a fresh interpreter, so each one pays for what
`import nclat.cli` loads.  It must load nothing from the standard library
beyond what `import argparse, fractions, json, signal` loads.  Loading a
built-in fixture reads no file and must load nothing more.

Each statement runs under `python -S`, so no site-packages `.pth` file preloads
a module.  Run as a script, this file checks the nclat installed in the
interpreter's site-packages instead of the source tree:

    python tests/test_startup.py
"""

import json
import os
import subprocess
import sys

BASELINE = "import argparse, fractions, json, signal"
STATEMENTS = (
    "import nclat.cli",
    'import nclat.cli, nclat.fixtures; nclat.fixtures.load_builtin("triangle-pinwheel")',
)


def _loaded(statement, path):
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True,
    )
    return set(json.loads(res.stdout))


def extra_modules(statement, path):
    """Modules other than nclat's that statement loads, with nclat imported
    from path, beyond the baseline."""
    extra = _loaded(statement, path) - _loaded(BASELINE, path)
    return sorted(m for m in extra if m != "nclat" and not m.startswith("nclat."))


def test_cli_import_loads_nothing_beyond_the_baseline():
    import nclat

    path = os.path.dirname(nclat.__path__[0])
    for statement in STATEMENTS:
        assert extra_modules(statement, path) == [], statement


if __name__ == "__main__":
    import sysconfig

    failed = False
    for statement in STATEMENTS:
        extra = extra_modules(statement, sysconfig.get_paths()["purelib"])
        print(f"{statement}: modules beyond the baseline:", " ".join(extra) or "none")
        failed = failed or bool(extra)
    sys.exit(1 if failed else 0)
