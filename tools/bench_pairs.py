"""Alternated parent/change pairs of the benchmark, and the gain rule.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \
        --workload long_horizon --workload governed_loop --seed 23 \
        --claim long_horizon:op_s --change "what changed" \
        --out BENCH_name.json

PARENT_TREE and CHANGE_TREE are two source trees, each holding its own
``perfbench/run.py`` and ``src/fgmpc``. A pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once in each tree,
from that tree's root, at perfbench's own run length, one after the
other; the side that runs first alternates from pair to pair, so a drift
of the host's speed falls on both sides alike. Every workload gets ten
pairs. Every end-to-end metric of the parent's
``BENCHMARK.json`` is reported per workload: the runs, their median and
quartiles, how many pairs the change won, the change of the median
against the metric's regression bound, and a verdict (see ``compare``).
``no_regression`` is true when every (workload, metric) verdict is
"within".

After the pairs, each tree runs the workload once more with
``--trace 1``. Its count-, rows- and bytes-unit metrics (LPs, pivots, QP
iterations, rows at each stage, bytes written) and its frac-unit shares
of counts (warm-started QPs, support LPs that stopped early) are
deterministic, so they are written side by side, and every one that
differs between the trees is marked. ``trace.overhead_frac``, a ratio of
times, is left out. Each run's op-0 fingerprint (the digest of the first
operation's outputs that perfbench prints) is compared too: the distinct
ones of each side are recorded per workload, and a difference between
the sides is marked.

The claim (``--claim WORKLOAD:METRIC``) is met when the change wins at
least nine of the ten pairs, ties counting for neither side, the medians
differ by more than the parent's interquartile range, and no larger
share of the workload's operations fails than at the parent. A claim
whose workload is not among the ``--workload`` ones, or whose metric is
not an end-to-end metric of the parent's ``BENCHMARK.json``, is refused
as a usage error before the first run.

The line count of ``src/fgmpc/*.py`` in each tree, as ``wc -l`` gives
it, is recorded and printed beside the runs.

Each run's host readings are kept per pair: the calibration time that
perfbench measures before and after the run (``env calibration_s a ->
b``) and the CPU steal time during it (``env steal_s``). A side's
calibration is the mean of its two readings; a pair whose two sides'
calibrations differ by more than 25% of the smaller one ran on a host
whose speed drifted between them, and is marked ``drift``. So is a pair
in which either run's own two readings differ by more than 25% of the
smaller one: the host's speed drifted during that run. Beside its
full verdict, every (workload, metric) gets a second one under
``without_drift``: the same comparison over the pairs not marked, with
their count; fewer than MIN_CLEAN_PAIRS (5) such pairs tell nothing, and
that verdict is "unresolved". ``no_regression_without_drift`` is true
when every one of those is "within". The full verdicts,
``no_regression`` and the claim still count every pair.

A run still going after RUN_TIMEOUT_S (900 s) is killed, and stops the
tool with an error naming its command and tree. A run that exits
non-zero stops it with the last 20 lines of the run's stdout, which
hold perfbench's per-operation errors, and the last 20 of its stderr,
which hold the traceback of a run that crashed. A run that reports
``correct: false`` with no failed operation (a broken tracer guard, a
set-up that is not deterministic, outputs that differ between
operations) stops the tool with that run's report.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

PAIRS = 10
WINS_NEEDED = 9
COUNT_UNITS = ("count", "rows", "bytes", "frac")
# frac metrics that are ratios of times, not of counts
TIMED_FRACS = ("trace.overhead_frac",)
FINGERPRINT = re.compile(r"fingerprint of op 0 = (\S+)")
CALIBRATION = re.compile(r"env calibration_s = (\S+) -> (\S+)")
STEAL = re.compile(r"env steal_s = (\S+)")
DRIFT = 0.25
# the fewest undrifted pairs a without_drift verdict is read from
MIN_CLEAN_PAIRS = 5
# a run lasts perfbench's 30 s plus its set-ups and checks
RUN_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change_tree")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--claim", default=None, help="WORKLOAD:METRIC")
    p.add_argument("--change", default="", help="one line on the change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        args.metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if args.claim is not None:
        workload, colon, name = args.claim.partition(":")
        if not colon:
            p.error("--claim must be WORKLOAD:METRIC, got {!r}".format(
                args.claim))
        if workload not in args.workload:
            p.error("--claim workload {!r} is not a --workload: {}".format(
                workload, ", ".join(args.workload)))
        if name not in args.metrics:
            p.error("--claim metric {!r} is not an end-to-end metric of "
                    "BENCHMARK.json: {}".format(name,
                                                ", ".join(args.metrics)))
        args.claim = (workload, name)
    return args


def run_once(tree, workload, seed, trace=0):
    """One benchmark run in tree; returns its result record, with the
    op-0 fingerprint of its report under "fingerprint", its calibration
    times before and after under "calibration_s" and its steal time under
    "steal_s" (None when the report lacks them). A run still going after
    RUN_TIMEOUT_S seconds is killed, and RuntimeError names it; so does a
    run that exits non-zero, with the last 20 lines of its stdout and
    then of its stderr (where a crash leaves its traceback)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace",
           str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("{} in {} was killed after {} s".format(
            " ".join(cmd), tree, RUN_TIMEOUT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = lines[-20:] + proc.stderr.strip().splitlines()[-20:]
        raise RuntimeError("{} in {} exited {}:\n{}".format(
            " ".join(cmd), tree, proc.returncode, "\n".join(tail)))
    res = json.loads(lines[-1])
    if not res["correct"] and res["failed"] == 0:
        raise RuntimeError("{} in {} is not correct with no failed "
                           "operation:\n{}".format(" ".join(cmd), tree,
                                                   "\n".join(lines[:-1])))
    found = first_match(FINGERPRINT, lines[:-1])
    res["fingerprint"] = found[0] if found else None
    found = first_match(CALIBRATION, lines[:-1])
    res["calibration_s"] = [float(v) for v in found] if found else None
    found = first_match(STEAL, lines[:-1])
    res["steal_s"] = float(found[0]) if found else None
    return res


def first_match(pattern, lines):
    """The groups of the first line that pattern matches, or None."""
    for m in map(pattern.match, lines):
        if m:
            return m.groups()
    return None


def beyond_drift(readings):
    """Whether the largest of readings exceeds the smallest by more than
    DRIFT of the smallest."""
    return max(readings) - min(readings) > DRIFT * min(readings)


def host_drift(parent, change):
    """The host readings of one pair's two runs, and whether the host
    drifted: the runs' calibrations (each the mean of the run's two
    readings) differ by more than DRIFT of the smaller one, or so do the
    two readings of either run. A side without readings marks nothing."""
    pair = {side: {"calibration_s": run["calibration_s"],
                   "steal_s": run["steal_s"]}
            for side, run in (("parent", parent), ("change", change))}
    runs = [run["calibration_s"] for run in (parent, change)
            if run["calibration_s"]]
    pair["drift"] = (len(runs) == 2
                     and beyond_drift([statistics.mean(r) for r in runs])) \
        or any(map(beyond_drift, runs))
    return pair


def src_lines(tree):
    """Newline count over the tree's src/fgmpc/*.py files."""
    src = os.path.join(tree, "src", "fgmpc")
    total = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def counts(parent, change):
    """The deterministic metrics of two traced runs (count-, rows-,
    bytes- and frac-unit, but no ratio of times) side by side, each
    marked when the two differ."""
    out = {}
    for name in sorted(set(parent["metrics"]) | set(change["metrics"])):
        p = parent["metrics"].get(name)
        c = change["metrics"].get(name)
        unit = (p or c)["unit"]
        if unit not in COUNT_UNITS or name in TIMED_FRACS:
            continue
        pv = p["value"] if p else None
        cv = c["value"] if c else None
        out[name] = {"unit": unit, "parent": pv, "change": cv,
                     "differs": pv != cv}
    return out


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in runs]}


def compare(parent, change, better, bound):
    """Both sides of one metric, the change's wins, its median change
    against the regression bound (a fraction of the parent's median) and
    the no-regression verdict: "worse" when the median is worse by more
    than the bound; "unresolved" when the parent's own spread (its
    interquartile range over its median) exceeds the bound and not every
    run of the change reads better than every run of the parent; "within"
    otherwise."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    worse = sign * (statistics.median(change) - median) / median
    spread = (q3 - q1) / median
    if worse > bound:
        verdict = "worse"
    elif spread > bound and not all(sign * (p - c) > 0.0
                                    for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {"parent": summary(parent), "change": summary(change),
            "change_wins": wins, "median_worse_by": round(worse, 4),
            "parent_spread": round(spread, 4), "bound": bound,
            "verdict": verdict}


def without_drift(parent, change, drifted, better, bound):
    """compare over the pairs whose index is not in drifted, with their
    count under "pairs"; fewer than MIN_CLEAN_PAIRS such pairs tell
    nothing, and the verdict is "unresolved"."""
    keep = [i for i in range(len(parent)) if i not in drifted]
    if len(keep) < MIN_CLEAN_PAIRS:
        return {"pairs": len(keep), "verdict": "unresolved"}
    m = compare([parent[i] for i in keep], [change[i] for i in keep],
                better, bound)
    m["pairs"] = len(keep)
    return m


def main(argv=None):
    args = parse_args(argv)
    metrics = args.metrics
    sides = {"parent": args.parent, "change": args.change_tree}
    report = {"change": args.change,
              "host": "{} CPUs, {} {}, Python {}".format(
                  os.cpu_count(), platform.system(), platform.machine(),
                  platform.python_version()),
              "command": "python3 perfbench/run.py --workload W --seed {} "
                         "--trace 0, alternated parent/change pairs, the "
                         "side that runs first alternating; then --trace 1 "
                         "once per tree for the counts".format(args.seed),
              "src_lines": {side: src_lines(tree)
                            for side, tree in sides.items()},
              "pairs": {}}
    print("src/fgmpc lines: parent {parent}, change {change}".format(
        **report["src_lines"]), flush=True)
    for workload in args.workload:
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for side in order:
                res = run_once(sides[side], workload, args.seed)
                runs[side].append(res)
                print("{} pair {} {}: op_s {:.4f}, {} of {} failed".format(
                    workload, i, side, res["metrics"]["op_s"]["value"],
                    res["failed"], res["attempted"]), flush=True)
        prints = {side: sorted({r["fingerprint"] for r in runs[side]},
                               key=str) for side in sides}
        host = [host_drift(p, c)
                for p, c in zip(runs["parent"], runs["change"])]
        drifted = [i for i, pair in enumerate(host) if pair["drift"]]
        print("{} pairs with host drift above {:.0%}: {}".format(
            workload, DRIFT, drifted or "none"), flush=True)
        entry = {"pairs": PAIRS, "host": host, "drift_pairs": drifted,
                 "failed": {side: sum(r["failed"] for r in runs[side])
                            for side in sides},
                 "attempted": {side: sum(r["attempted"] for r in runs[side])
                               for side in sides},
                 "fingerprint": dict(prints, differs=prints["parent"]
                                     != prints["change"])}
        print("{} op-0 fingerprint: parent {}, change {}".format(
            workload, prints["parent"], prints["change"]), flush=True)
        for name, spec in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in sides}
            entry[name] = compare(values["parent"], values["change"],
                                  spec["better"], spec["bound"])
            entry[name]["without_drift"] = without_drift(
                values["parent"], values["change"], drifted, spec["better"],
                spec["bound"])
        traced = {side: run_once(sides[side], workload, args.seed, trace=1)
                  for side in sides}
        entry["traced_correct"] = {side: traced[side]["correct"]
                                   for side in sides}
        entry["counts"] = counts(traced["parent"], traced["change"])
        print("{} traced: {} counts differ".format(
            workload, sum(c["differs"] for c in entry["counts"].values())),
            flush=True)
        report["pairs"][workload] = entry
    verdicts = {"{}:{}".format(workload, name): entry[name]["verdict"]
                for workload, entry in report["pairs"].items()
                for name in metrics}
    report["no_regression"] = all(v == "within" for v in verdicts.values())
    print("no regression: {} ({})".format(report["no_regression"], ", ".join(
        "{} {}".format(k, v) for k, v in verdicts.items())), flush=True)
    clean = {"{}:{}".format(workload, name):
             entry[name]["without_drift"]["verdict"]
             for workload, entry in report["pairs"].items()
             for name in metrics}
    report["no_regression_without_drift"] = all(
        v == "within" for v in clean.values())
    print("no regression without drifted pairs: {} ({})".format(
        report["no_regression_without_drift"], ", ".join(
            "{} {}".format(k, v) for k, v in clean.items())), flush=True)
    if args.claim:
        workload, name = args.claim
        m = report["pairs"][workload][name]
        sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
        gap = sign * (m["parent"]["median"] - m["change"]["median"])
        iqr = m["parent"]["q3"] - m["parent"]["q1"]
        ops = report["pairs"][workload]
        share = {side: ops["failed"][side] / max(ops["attempted"][side], 1)
                 for side in sides}
        report["claim"] = {
            "metric": name, "workload": workload,
            "rule": "change wins >= {}/{} pairs, the median gap exceeds the "
                    "parent's interquartile range and no larger share of "
                    "operations fails".format(WINS_NEEDED, PAIRS),
            "met": m["change_wins"] >= WINS_NEEDED and gap > iqr
                   and share["change"] <= share["parent"],
            "wins": m["change_wins"], "median_gap": round(gap, 4),
            "parent_iqr": round(iqr, 4),
            "failed_share": {side: round(v, 4) for side, v in share.items()}}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report.get("claim", {})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
