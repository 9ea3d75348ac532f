#!/usr/bin/env python3
"""Soft throughput gate for the bench suites.

Compares freshly produced bench JSON-lines files (BENCH_search.json,
BENCH_sim.json, ...) against their committed baselines, keyed by
(case, oracle, mode), on candidates_per_sec or points_per_sec.  CI runner
timing is far too noisy for a hard gate, so a drop beyond the threshold
emits a GitHub Actions ::warning:: annotation (visible on the job summary)
and the exit code stays 0 either way; the committed baselines are only
refreshed deliberately, by rerunning the bench in full mode on a quiet
machine.

Usage:
  check_bench_regression.py BASELINE CURRENT [BASELINE CURRENT ...]
                            [--threshold 0.30] [--summary out.json]
  check_bench_regression.py --self-test

Positional arguments form (baseline, current) pairs, so a single
invocation covers every suite and --summary consolidates all of them
into one machine-readable artifact.  The original two-argument form is
unchanged.
"""

import argparse
import json
import sys


METRICS = ("candidates_per_sec", "points_per_sec")


def load_rows(path):
    """Keyed throughput rows from a JSON-lines bench file.

    Returns (rows, readable).  Summary objects (speedup lines, the obs
    trailer) carry no throughput metric and are skipped;
    unparsable lines are reported but never fatal -- this gate must not
    brick CI over formatting drift.  An unreadable file (typically a
    baseline that does not exist yet on a first-run branch) yields
    ({}, False) so the caller can degrade to a note instead of a
    warning.
    """
    rows = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    print(f"note: {path}:{line_no}: unparsable line skipped")
                    continue
                metric = next((m for m in METRICS if m in obj), None)
                if metric is None:
                    continue
                key = (obj.get("case"), obj.get("oracle"), obj.get("mode"))
                if None in key:
                    continue
                try:
                    value = float(obj[metric])
                except (TypeError, ValueError):
                    # A null or non-numeric metric (a crashed bench rep, a
                    # hand-edited baseline) must degrade to a note, never
                    # crash the gate.
                    print(f"note: {path}:{line_no}: {metric} is not a "
                          f"number ({obj[metric]!r}); row skipped")
                    continue
                rows[key] = value
    except OSError as err:
        print(f"note: cannot read {path}: {err}")
        return rows, False
    return rows, True


def compare_pair(baseline_path, current_path, threshold):
    """One suite's comparison, as a JSON-ready dict."""
    baseline, baseline_readable = load_rows(baseline_path)
    current, _ = load_rows(current_path)
    result = {
        "baseline": baseline_path,
        "current": current_path,
        "baseline_missing": not baseline_readable,
        "baseline_rows": len(baseline),
        "current_rows": len(current),
        "compared": 0,
        "regressions": [],
        "missing": [],
    }
    if not baseline_readable:
        # First run of a new suite: there is nothing to gate against yet.
        # Degrade to a note (warn-not-fail is this tool's contract, and a
        # missing baseline is not even worth a ::warning:: annotation).
        print(f"bench-regression: no baseline at {baseline_path} "
              f"(first run? commit the full-mode bench output to create "
              f"one); suite skipped")
        return result
    for key, base_cps in sorted(baseline.items()):
        cur_cps = current.get(key)
        if cur_cps is None:
            # A deleted mode or case would otherwise shrink the gate
            # silently; list it so the summary shows what went ungated.
            case, oracle, mode = key
            result["missing"].append(
                {"case": case, "oracle": oracle, "mode": mode})
            continue
        if base_cps <= 0:
            # A zero baseline would divide by zero below; it carries no
            # gating information (the baseline run produced nothing), so
            # note it and move on rather than crash or silently drop it.
            print(f"note: {baseline_path}: baseline throughput for "
                  f"{'/'.join(str(k) for k in key)} is {base_cps}; "
                  f"row skipped")
            continue
        result["compared"] += 1
        ratio = cur_cps / base_cps
        if ratio < 1.0 - threshold:
            case, oracle, mode = key
            result["regressions"].append({
                "case": case,
                "oracle": oracle,
                "mode": mode,
                "baseline_rows_per_sec": base_cps,
                "current_rows_per_sec": cur_cps,
                "ratio": ratio,
            })
    return result


def self_test():
    """Exercises every degrade path on synthetic fixtures.

    Returns 0 when all assertions hold; run by CI so the gate's own
    crash-resilience (null metrics, zero baselines, missing files, baseline
    rows the current run no longer produces) is itself gated.
    """
    import os
    import subprocess
    import tempfile

    def row(case, cps):
        return json.dumps({"case": case, "oracle": "exact", "mode": "full",
                           "candidates_per_sec": cps})

    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)
        print(f"self-test: {name}: {'ok' if cond else 'FAIL'}")

    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base.json")
        cur = os.path.join(tmp, "cur.json")
        with open(base, "w", encoding="utf-8") as fh:
            fh.write(row("fast", 1000.0) + "\n")       # regresses below
            fh.write(row("zero", 0) + "\n")            # zero baseline
            fh.write(row("null", None) + "\n")         # null metric
            fh.write(row("text", "not-a-number") + "\n")  # non-numeric
            fh.write("{malformed\n")                   # unparsable line
        with open(cur, "w", encoding="utf-8") as fh:
            fh.write(row("fast", 100.0) + "\n")
            fh.write(row("zero", 500.0) + "\n")
            fh.write(row("null", 500.0) + "\n")
            fh.write(row("text", 500.0) + "\n")

        res = compare_pair(base, cur, threshold=0.30)
        check("regression detected", len(res["regressions"]) == 1
              and res["regressions"][0]["case"] == "fast")
        check("only the numeric positive row compared",
              res["compared"] == 1)
        check("null/non-numeric rows dropped at load",
              res["baseline_rows"] == 2)  # fast + zero survive
        check("readable baseline not flagged missing",
              not res["baseline_missing"])

        missing = compare_pair(os.path.join(tmp, "nope.json"), cur,
                               threshold=0.30)
        check("missing baseline degrades to a note",
              missing["baseline_missing"]
              and missing["compared"] == 0
              and not missing["regressions"])

        improved = compare_pair(cur, cur, threshold=0.30)
        check("identical suites report no regression",
              improved["compared"] == 4 and not improved["regressions"]
              and not improved["missing"])

        shrunk = os.path.join(tmp, "shrunk.json")
        with open(shrunk, "w", encoding="utf-8") as fh:
            fh.write(row("fast", 1000.0) + "\n")
        dropped = compare_pair(cur, shrunk, threshold=0.30)
        check("baseline rows absent from the current run listed as missing",
              dropped["compared"] == 1
              and sorted(m["case"] for m in dropped["missing"])
              == ["null", "text", "zero"])
        check("a full current run lists nothing missing",
              not res["missing"])
        run = subprocess.run(
            [sys.executable, os.path.abspath(__file__), cur, shrunk],
            capture_output=True, text=True, check=False)
        check("missing rows print a note and keep exit code 0",
              run.returncode == 0 and "has no current row" in run.stdout
              and "3 missing" in run.stdout)

    print(f"self-test: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failing check(s))")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="*", metavar="BASELINE CURRENT",
                        help="one or more (baseline, current) file pairs")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional slowdown that triggers a warning")
    parser.add_argument("--summary", metavar="OUT.json",
                        help="write a consolidated JSON report here")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.files:
        parser.error("BASELINE CURRENT file pairs required "
                     "(or --self-test)")

    if len(args.files) % 2 != 0:
        parser.error("arguments must form (baseline, current) pairs")
    pairs = list(zip(args.files[0::2], args.files[1::2]))

    results = [compare_pair(b, c, args.threshold) for b, c in pairs]

    total_compared = 0
    total_regressions = 0
    total_missing = 0
    for res in results:
        total_compared += res["compared"]
        total_regressions += len(res["regressions"])
        total_missing += len(res["missing"])
        if res["baseline_missing"]:
            continue  # already reported by compare_pair
        for gone in res["missing"]:
            print(f"note: {res['baseline']}: baseline row "
                  f"{gone['case']}/{gone['oracle']}/{gone['mode']} has no "
                  f"current row; not gated")
        if res["compared"] == 0:
            print(f"bench-regression: nothing to compare for "
                  f"{res['baseline']} vs {res['current']} "
                  f"({res['baseline_rows']} baseline rows, "
                  f"{res['current_rows']} current rows)")
            continue
        for reg in res["regressions"]:
            print(f"::warning title=bench regression::"
                  f"{reg['case']}/{reg['oracle']}/{reg['mode']}: "
                  f"{reg['current_rows_per_sec']:,.0f} rows/s vs baseline "
                  f"{reg['baseline_rows_per_sec']:,.0f} "
                  f"({reg['ratio']:.2f}x)")
        print(f"bench-regression: {res['baseline']}: "
              f"compared {res['compared']} rows, "
              f"{len(res['regressions'])} beyond the "
              f"{args.threshold:.0%} threshold")

    print(f"bench-regression: total {total_compared} rows across "
          f"{len(pairs)} suite(s), {total_regressions} regression(s), "
          f"{total_missing} missing"
          + (" (warnings only, job not failed)"
             if total_regressions or total_missing else ""))

    if args.summary:
        report = {
            "tool": "check_bench_regression",
            "threshold": args.threshold,
            "total_compared": total_compared,
            "total_regressions": total_regressions,
            "total_missing": total_missing,
            "suites": results,
        }
        try:
            with open(args.summary, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"bench-regression: summary written to {args.summary}")
        except OSError as err:
            print(f"note: cannot write {args.summary}: {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
