#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

Run from the repository root.

  collect   run workloads over several seeds and append the results to a file
  spread    per workload and metric: median and quartile spread of one file
  diff      flag metrics whose median in NEW is worse than in BASE by more
            than the metric's bound in BENCHMARK.json, and workloads whose
            NEW runs have failed operations or wrong answers; a metric whose
            quartile spread exceeds its bound reads "unresolved", not "ok"
  fig8      Fig. 8 ratios (no-GApply / GApply per-query medians) of a file
            holding both fig8 workloads
  selftest  the gate must catch a 1.3x slowdown injected around every
            fig8_gapply execution, and flag nothing on fig8_outer_union

Examples:
  python3 perfbench/compare.py collect --out base.jsonl --seeds 1-10
  python3 perfbench/compare.py spread base.jsonl
  python3 perfbench/compare.py diff base.jsonl new.jsonl
  python3 perfbench/compare.py selftest --seeds 1-5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAPER_FIG8 = {1: "~1.5-2x", 2: "~2x", 3: "~1.5-2x", 4: "~1.5-2x"}
# Slowdown the self-test injects around every fig8_gapply execution.
INJECT = 1.3


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace=0, inject=1.0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject != 1.0:
        cmd += ["--inject-exec-delay", str(inject)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    detail = {}
    for line in lines[:-1]:
        try:
            detail.update(json.loads(line).get("detail", {}))
        except ValueError:
            pass
    record.update(workload=workload, seed=seed, trace=trace, inject=inject,
                  detail=detail)
    return record


def collect(workloads, seeds, seconds, out, trace=0, inject=1.0):
    records = []
    with open(out, "a") as f:
        # Seeds outermost, so slow drift on the machine spreads over all
        # workloads instead of landing on one.
        for seed in seeds:
            for w in workloads:
                r = run_once(w, seed, seconds, trace, inject)
                f.write(json.dumps(r) + "\n")
                f.flush()
                records.append(r)
                print("%-18s seed %-3d correct=%s failed=%d" %
                      (w, seed, r["correct"], r["failed"]), file=sys.stderr)
    return records


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records):
    out = {}
    for r in records:
        out.setdefault(r["workload"], []).append(r)
    return out


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def quartile_spread(vals):
    """(q3 - q1) / median, the statistic the acceptance check uses."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else 0.0


def spread_report(records):
    ok = True
    for w, rs in sorted(by_workload(records).items()):
        metrics = sorted({m for r in rs for m in r["metrics"]})
        failed = sum(r["failed"] for r in rs)
        incorrect = sum(not r["correct"] for r in rs)
        print("%s (%d runs, %d failed ops, %d incorrect runs)" %
              (w, len(rs), failed, incorrect))
        ok = ok and failed == 0 and incorrect == 0
        for m in metrics:
            v = values(rs, m)
            print("  %-28s median %12.6g  spread %6.2f%%" %
                  (m, statistics.median(v), 100 * quartile_spread(v)))
    return ok


def diff(base, new, spec):
    """Returns {workload: [regressed metric names]} over end-to-end metrics.

    A workload whose NEW runs include a wrong answer or a failed operation
    is flagged as well, under the name "correctness".
    """
    base_w, new_w = by_workload(base), by_workload(new)
    flagged = {}
    for w in sorted(set(base_w) & set(new_w)):
        flagged[w] = []
        failed = sum(r["failed"] for r in new_w[w])
        incorrect = sum(not r["correct"] for r in new_w[w])
        print("%s (new: %d failed ops, %d incorrect runs)" %
              (w, failed, incorrect))
        if failed or incorrect:
            flagged[w].append("correctness")
        for m in spec["end_to_end"]:
            b, n = values(base_w[w], m["name"]), values(new_w[w], m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            worse = change if m["better"] == "lower" else -change
            regressed = worse > m["bound"]
            spread_b, spread_n = quartile_spread(b), quartile_spread(n)
            if regressed:
                flagged[w].append(m["name"])
                verdict = "REGRESSION"
            elif max(spread_b, spread_n) > m["bound"]:
                # Run-to-run noise is wider than the bound: "ok" would
                # claim more than the runs show.
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-18s base %11.5g  new %11.5g  %+7.2f%%  bound %4.0f%%"
                  "  spread %5.1f%%/%5.1f%%  %s" %
                  (m["name"], mb, mn, 100 * change, 100 * m["bound"],
                   100 * spread_b, 100 * spread_n, verdict))
    return flagged


def fig8_report(records):
    w = by_workload(records)
    if "fig8_gapply" not in w or "fig8_outer_union" not in w:
        raise SystemExit("fig8 needs runs of fig8_gapply and fig8_outer_union")
    print("query  no-GApply p50 ms   GApply p50 ms   ratio   paper")
    for q in range(1, 5):
        key = "q%d_p50_ms" % q
        without = statistics.median(r["detail"][key]
                                    for r in w["fig8_outer_union"])
        with_g = statistics.median(r["detail"][key] for r in w["fig8_gapply"])
        print("Q%d     %16.2f %15.2f %7.2fx   %s" %
              (q, without, with_g, without / with_g, PAPER_FIG8[q]))
    print("ratio = no-GApply / GApply; >1 means GApply wins")


def selftest(args, spec):
    seeds = parse_seeds(args.seeds)
    workloads = ["fig8_gapply", "fig8_outer_union"]
    base_path = os.path.join(args.dir, "selftest_base.jsonl")
    new_path = os.path.join(args.dir, "selftest_injected.jsonl")
    for p in (base_path, new_path):
        if os.path.exists(p):
            os.remove(p)
    base = collect(workloads, seeds, args.seconds, base_path)
    new = collect(workloads, seeds, args.seconds, new_path, inject=INJECT)
    flagged = diff(base, new, spec)
    caught = bool(flagged["fig8_gapply"])
    clean = not flagged["fig8_outer_union"]
    print("injected %.2fx on fig8_gapply: %s; fig8_outer_union: %s" %
          (INJECT, "flagged" if caught else "NOT FLAGGED",
           "no regression" if clean else "FALSE REGRESSION"))
    return 0 if caught and clean else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    p = sub.add_parser("collect")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))

    p = sub.add_parser("spread")
    p.add_argument("file")

    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")

    p = sub.add_parser("fig8")
    p.add_argument("file")

    p = sub.add_parser("selftest")
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--dir", default=os.path.join(ROOT, ".bench_build"))

    args = parser.parse_args()
    if args.cmd == "collect":
        collect(args.workloads.split(","), parse_seeds(args.seeds),
                args.seconds, args.out, args.trace)
        return 0
    if args.cmd == "spread":
        return 0 if spread_report(read(args.file)) else 1
    if args.cmd == "diff":
        flagged = diff(read(args.base), read(args.new), spec)
        return 1 if any(flagged.values()) else 0
    if args.cmd == "fig8":
        fig8_report(read(args.file))
        return 0
    return selftest(args, spec)


if __name__ == "__main__":
    sys.exit(main())
