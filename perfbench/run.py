"""nclat benchmark: fixed lists of CLI operations, each in a fresh interpreter.

    python3 perfbench/run.py --workload {lattice,search,tables} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.  A
closed loop with one client: the operations of the workload run one at a
time, each in its own child process (so at most two processes exist), and
the whole list repeats until S seconds have passed, at least once.  Every
output is checked against an expectation that does not come from the
program (see workloads.py).  With --trace 0 the end-to-end metrics are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics are reported.  The last line of stdout is one JSON object.
The seed only changes the random configurations of `lattice` and `search`.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
GRACE_S = 5.0  # after SIGTERM at the deadline, before SIGKILL
DIGESTS = workloads.load_digests()
# Children import nclat from this checkout and run with Python's defaults,
# as an installed CLI does: bytecode cached (the warm-up writes it to
# src/), stdout buffered.
# NCLAT_* variables are dropped too, so the default caps apply.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")
             and not k.startswith("NCLAT_")}
CHILD_ENV["PYTHONPATH"] = os.path.join(ROOT, "src")

LAYERS = (
    "geometry.load", "partition.enumerate", "poset.build", "poset.covers",
    "poset.graded", "poset.export", "poset.selfdual", "poset.isomorphic",
    "poset.lattice_check", "poset.join", "scd.family", "scd.generic",
    "scd.verify", "enumeration.recurrence", "enumeration.series",
    "enumeration.brute", "acceptance", "cli",
)
COUNTS = (
    "partition.enumerate.calls", "partition.elements", "poset.relations",
    "poset.covers", "poset.isomorphic.calls", "poset.selfdual.failed",
    "poset.lattice_check.pairs", "poset.join.calls", "scd.chains",
    "scd.family.failed", "enumeration.cells", "cli.stdout_bytes",
)
# counts that must repeat exactly across passes and runs of one seed
DETERMINISTIC = ("partition.elements", "poset.relations", "poset.covers",
                 "scd.chains", "enumeration.cells")


def run_child(argv, stdout, stderr, deadline):
    """Run one operation's child and stop it at the deadline: SIGTERM first,
    so a traced child can still write its spans, then SIGKILL.  Returns
    (exit code, start time, wall seconds, peak RSS in KiB, whether it was
    cut)."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=ROOT,
                            env=CHILD_ENV)
    # readable once the child exits; until it is reaped its pid stays ours
    pidfd = os.pidfd_open(proc.pid)
    try:
        cut = not select.select([pidfd], [], [], deadline)[0]
        if cut:
            os.kill(proc.pid, signal.SIGTERM)
            if not select.select([pidfd], [], [], GRACE_S)[0]:
                os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    finally:
        os.close(pidfd)
    # reaped by wait4 above; tell Popen, so it does not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, usage.ru_maxrss, cut


def run_op(op, trace, opdir, deadline):
    res_path = os.path.join(opdir, "result.json")
    out_path = os.path.join(opdir, "stdout")
    err_path = os.path.join(opdir, "stderr")
    if os.path.exists(res_path):
        os.remove(res_path)
    argv = [sys.executable, CHILD, res_path, "1" if trace else "0", "--", *op.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        rc, start, wall, maxrss_kb, cut = run_child(argv, out, err, deadline)
    rep = {}
    if os.path.exists(res_path):
        with open(res_path, encoding="utf-8") as fh:
            rep = json.load(fh)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    timed_out = cut or rep.get("timed_out", False)
    rec = {
        "op": op.name,
        "wall_s": wall,
        # a cut operation counts at the deadline (plus the time to stop it)
        "op_s": wall if timed_out or "op_s" not in rep else rep["op_s"],
        "setup_s": rep["ready"] - start if "ready" in rep else None,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "stdout_bytes": len(stdout.encode("utf-8")),
        "problems": _problems(op, timed_out, rc, stdout, stderr, deadline),
        "failure": _failure_mode(timed_out, rc, stdout, stderr),
    }
    if trace:
        rec["spans"] = rep.get("spans", [])
        rec["counts"] = rep.get("counts", {})
    return rec


def _failure_mode(timed_out, rc, stdout, stderr):
    """How a crashed or hung operation failed: "deadline", or the exception
    type of an uncaught traceback with exit 1 and no stdout; else None."""
    if timed_out:
        return "deadline"
    lines = stderr.strip().splitlines()
    if rc == 1 and not stdout and lines and \
            "Traceback (most recent call last)" in stderr:
        return lines[-1].split(":", 1)[0]
    return None


def _problems(op, timed_out, rc, stdout, stderr, deadline):
    """Why the operation failed, or [] when its output is as expected."""
    if timed_out:
        return [f"passed the {deadline:.0f} s deadline"]
    if "Traceback (most recent call last)" in stderr:
        return [f"raw traceback: {stderr.strip().splitlines()[-1]}"]
    if op.or_exit is not None and rc == op.or_exit and not stdout:
        return []
    if rc != op.rc:
        return [f"exit {rc}, want {op.rc}: {stderr.strip()[:200]}"]
    if rc == 0 and stderr:
        return [f"stderr on success: {stderr.strip()[:200]}"]
    if op.digest and workloads.digest_of(stdout) != DIGESTS.get(op.name):
        return ["stdout differs from the digest captured at the seed commit"]
    try:
        return op.check(stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable stdout: {exc!r}"]


def run_pass(ops, trace, opdir, deadline):
    return [run_op(op, trace, opdir, deadline) for op in ops]


# ---------------------------------------------------------------------------
# per-layer attribution

def self_times(spans):
    """Self time per layer of one operation: each span's duration minus the
    part covered by its child spans (which never overlap: one thread)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, failed in spans:
        if parent is not None:
            covered[parent] += end - start
    out = Counter()
    for (name, start, end, parent, failed), cov in zip(spans, covered):
        layer = "trace" if name == "trace.count" else name
        out[layer] += (end - start) - cov
    return out


def layer_report(rec):
    """Per-operation breakdown: wall = setup + layer self times + unattributed."""
    selfs = self_times(rec["spans"])
    setup = rec["setup_s"] or 0.0
    rest = rec["wall_s"] - setup - sum(selfs.values())
    counts = Counter(rec["counts"])
    counts["cli.stdout_bytes"] = rec["stdout_bytes"]
    for name, start, end, parent, failed in rec["spans"]:
        if failed and name in ("poset.selfdual", "scd.family"):
            counts[f"{name}.failed"] += 1
    return selfs, setup, rest, counts


# ---------------------------------------------------------------------------

median = statistics.median


def end_to_end(ops, passes):
    recs = [r for p in passes for r in p]
    samples = [r["op_s"] for r in recs]
    setups = [r["setup_s"] for r in recs if r["setup_s"] is not None]
    # op_max_s leaves out the known defects: with the deadline-cut one it
    # would read the deadline, a constant of the benchmark
    real = [[r for op, r in zip(ops, p) if not op.defect] for p in passes]
    return {
        "wall_s": (median([sum(r["wall_s"] for r in p) for p in passes]),
                   "s", len(passes)),
        "op_p50_s": (median(samples), "s", len(samples)),
        "op_max_s": (median([max(r["op_s"] for r in p) for p in real]),
                     "s", len(passes)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in recs), "MB", len(recs)),
        "setup_s": (median(setups), "s", len(setups)),
    }


def per_layer(plain, traced):
    totals, counts_seen = [], []
    for p in traced:
        tot, cnt = Counter(), Counter()
        for rec in p:
            selfs, _, _, counts = layer_report(rec)
            tot.update(selfs)
            cnt.update(counts)
        totals.append(tot)
        counts_seen.append(cnt)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (median([t[layer] for t in totals]), "s", len(totals))
    for name in COUNTS:
        unit = "bytes" if name == "cli.stdout_bytes" else "count"
        out[name] = (counts_seen[0][name], unit, len(counts_seen))
    overhead = [sum(r["wall_s"] for r in t) - sum(r["wall_s"] for r in u)
                for u, t in zip(plain, traced)]
    out["trace.overhead_s"] = (median(overhead), "s", len(overhead))
    mismatch = [n for n in DETERMINISTIC
                if len({c[n] for c in counts_seen}) != 1]
    return out, counts_seen[0], mismatch


def source_hash():
    """Digest of the program's source tree.  Some counts depend on how the
    program is written (how often it enumerates or asks for covers), so
    saved counts are compared only with runs of the same source."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def check_repeat(workload, seed, counts):
    """Compare the deterministic counts with an earlier run of this seed on
    the same source tree."""
    path = os.path.join(WORK, f"counts-{workload}-seed{seed}-{source_hash()}.json")
    mine = {n: counts[n] for n in DETERMINISTIC}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        return [n for n in DETERMINISTIC if before.get(n) != mine[n]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mine, fh)
    return []


def warm_up(opdir):
    """Import nclat once from this checkout's src/ (which also writes its
    bytecode).  Returns an error message, or None."""
    res = os.path.join(opdir, "result.json")
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, res, "0", "--", "--help"], cwd=ROOT,
            env=CHILD_ENV, capture_output=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        return "importing nclat took more than 120 s"
    if proc.returncode != 0 or not os.path.exists(res):
        return f"cannot run nclat from {ROOT}/src: {proc.stderr.decode()[-300:]}"
    with open(res, encoding="utf-8") as fh:
        pkg = json.load(fh)["pkg"]
    if os.path.realpath(pkg) != os.path.realpath(os.path.join(ROOT, "src", "nclat")):
        return f"nclat was imported from {pkg}, not from this checkout"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(WORK, exist_ok=True)
    opdir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(opdir)
    try:
        return bench(args, opdir)
    finally:
        shutil.rmtree(opdir, ignore_errors=True)


def bench(args, opdir):
    error = warm_up(opdir)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, opdir)
    deadline = workloads.DEADLINE[args.workload]
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} operations, "
          f"deadline {deadline:.0f} s per operation, trace {args.trace}")
    for op in ops:
        if op.oracle:
            o = op.oracle
            print(f"  {op.name}: {len(o['elements'])} elements after {o['draws']} "
                  f"draw(s), {o['collinear_triples']} collinear triples, "
                  f"{o['cocircular_quads']} cocircular quadruples")

    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_pass(ops, False, opdir, deadline))
        if args.trace:
            traced.append(run_pass(ops, True, opdir, deadline))
        if time.monotonic() - start >= args.seconds:
            break

    passes = plain + traced
    attempted = sum(len(p) for p in passes)
    failed = unexpected = 0
    for i, op in enumerate(ops):
        recs = [p[i] for p in passes]
        bad = [r for r in recs if r["problems"]]
        # a known defect excuses only the failure it was registered with
        new = [r for r in bad if not op.defect or r["failure"] != op.fails_by]
        failed += len(bad)
        unexpected += len(new)
        verdict = "ok" if not bad else "FAIL" if new else "FAIL (known defect)"
        print(f"{verdict:20s} {op.name:24s} op {median([r['op_s'] for r in recs]):8.3f} s"
              f"  wall {median([r['wall_s'] for r in recs]):8.3f} s")
        for r in (new or bad)[:1]:
            print(f"    {'; '.join(r['problems'])[:300]}")
            if op.defect:
                print(f"    known defect: {op.defect} ({op.fails_by}); "
                      f"this run: {r['failure']}")
    print(f"fail_ratio {failed / attempted:.4f} ({failed} of {attempted} "
          f"operations; {unexpected} outside the known defects)")

    errors = []
    if args.trace:
        metrics, counts, mismatch = per_layer(plain, traced)
        if mismatch:
            errors.append(f"counts differ between passes: {mismatch}")
        drift = check_repeat(args.workload, args.seed, counts)
        if drift:
            errors.append("counts differ from an earlier run of this seed on "
                          f"the same source: {drift}")
        if write_trace(args, ops, traced):
            errors.append("an operation's layer times exceed its wall time")
    else:
        metrics = end_to_end(ops, plain)
    for label, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"{label} wall per pass (s): " + ", ".join(
                f"{sum(r['wall_s'] for r in p):.3f}" for p in group))
    for name, (value, unit, n) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit:6s} (n={n})")
    # the result line carries the metrics BENCHMARK.json lists for this mode
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    for e in errors:
        print(f"error: {e}")
    result = {
        "correct": unexpected == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in listed if m["name"] in metrics},
    }
    print(json.dumps(result))
    return 0


def write_trace(args, ops, traced):
    """Write the spans and the per-operation breakdown once the run ends.
    Returns True when some remainder is negative, i.e. the layer times
    do not fit in the operation's wall time."""
    rows = []
    for p in traced:
        for op_id, rec in enumerate(p):
            selfs, setup, rest, counts = layer_report(rec)
            rows.append({
                "op": rec["op"], "op_id": op_id, "wall_s": rec["wall_s"],
                "setup_s": setup, "self_s": dict(selfs),
                "unattributed_s": rest, "counts": dict(counts),
                "spans": rec["spans"],
            })
    path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start", "end", "parent", "failed"],
                   "operations": rows}, fh)
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    last = rows[-len(ops):]
    print("per operation (last traced pass): wall = setup + layer self times + "
          "unattributed")
    for row in last:
        top = sorted(row["self_s"].items(), key=lambda kv: -kv[1])[:3]
        print(f"  {row['op']:24s} {row['wall_s']:8.3f} = {row['setup_s']:.3f} + "
              f"{sum(row['self_s'].values()):.3f} + {row['unattributed_s']:.3f}  "
              + ", ".join(f"{k} {v:.3f}" for k, v in top))
    return any(row["unattributed_s"] < 0 for row in rows)


if __name__ == "__main__":
    sys.exit(main())
