"""Write expected.json: the sha256 of stdout of each operation checked by
digest, as the program in ../src prints it.

    python3 perfbench/freeze.py

Run it at the commit whose output is the reference.  An output is frozen
only when it passes the operation's other checks (closed forms, frozen
tables, exit code); otherwise nothing is written.
"""

import json
import os
import subprocess
import sys
import tempfile

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    digests, bad = {}, []
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        ops = [op for build in workloads.WORKLOADS.values()
               for op in build(0, scratch)]
    for op in ops:
        if op.digest:
            proc = subprocess.run(
                [sys.executable, "-m", "nclat.cli", *op.argv], cwd=ROOT,
                env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                capture_output=True, text=True, check=False,
            )
            problems = op.check(proc.stdout) if proc.returncode == op.rc else [
                f"exit {proc.returncode}"]
            print(f"{op.name}: {'; '.join(problems) or 'ok'}")
            bad += problems
            digests[op.name] = workloads.digest_of(proc.stdout)
    if bad:
        return 1
    with open(workloads.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
