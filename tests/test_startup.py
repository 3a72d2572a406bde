"""Every CLI command is a fresh interpreter, so each one pays for what
`import nclat.cli` loads.  It must load nothing from the standard library
beyond what `import argparse, fractions, json, signal` loads.

Both imports run under `python -S`, so no site-packages `.pth` file preloads
a module.  Run as a script, this file checks the nclat installed in the
interpreter's site-packages instead of the source tree:

    python tests/test_startup.py
"""

import json
import os
import subprocess
import sys

BASELINE = "import argparse, fractions, json, signal"


def _loaded(statement, path):
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True,
    )
    return set(json.loads(res.stdout))


def extra_modules(path):
    """Modules other than nclat's that `import nclat.cli` loads, from path,
    beyond the baseline."""
    extra = _loaded("import nclat.cli", path) - _loaded(BASELINE, path)
    return sorted(m for m in extra if m != "nclat" and not m.startswith("nclat."))


def test_cli_import_loads_nothing_beyond_the_baseline():
    import nclat

    assert extra_modules(os.path.dirname(nclat.__path__[0])) == []


if __name__ == "__main__":
    import sysconfig

    extra = extra_modules(sysconfig.get_paths()["purelib"])
    print("modules beyond the baseline:", " ".join(extra) or "none")
    sys.exit(1 if extra else 0)
