#!/usr/bin/env python3
"""CI bench-regression gate.

Compares the JSON emitted by `perf_harness` (BENCH_kernels.json +
BENCH_sweep.json) against the committed bench/baseline.json and fails
when any gated metric drops more than its tolerance below the baseline.

Usage:
  check_bench_regression.py --baseline bench/baseline.json \
      --kernels BENCH_kernels.json --sweep BENCH_sweep.json
  check_bench_regression.py --write-baseline ... (regenerate the file)

Baseline schema (dynbcast-bench-baseline/1):
  {
    "schema": "dynbcast-bench-baseline/1",
    "metrics": {
      "<key>": {"value": <float>, "tolerance_pct": <float>},
      ...
    }
  }
where <key> is either "kernel:<name>:<bits>:gib_per_s" /
"kernel:<name>:<bits>:ns_per_op" (from BENCH_kernels.json) or
"sweep:<field>" (from BENCH_sweep.json). Throughput-like metrics
(gib_per_s, speedups) regress DOWNWARD; ns_per_op regresses UPWARD —
the comparison direction is inferred from the key.

Runner CPUs vary, so kernel throughput baselines carry generous
tolerances; the ratio metric (product_blocked_speedup) is
machine-relative and carries a tighter one. A commit whose message
contains [bench-skip] bypasses the gate entirely (CI wires that up).
"""

import argparse
import json
import sys

# Metrics gated by default when regenerating a baseline. Ratios are the
# robust cross-machine signal; one absolute throughput per kernel at the
# largest quick-mode size catches "the kernel stopped vectorizing" while
# the wide tolerance absorbs runner variance.
DEFAULT_GATES = {
    "sweep:product_blocked_speedup": 40.0,
    # Machine-relative too, but both sides are full stochastic t* runs at
    # a single n, so round-count luck adds variance on top of the runner's.
    "sweep:frontier_sparse_speedup": 60.0,
    "kernel:orAssign:1024:gib_per_s": 60.0,
    "kernel:orCount:1024:gib_per_s": 60.0,
    # The damage-greedy tree builder (greedy-delay's plain n = 256 tree,
    # the thm31 sweep's dominant layer): absolute ns per tree, so the
    # wide kernel tolerance absorbs runner variance; regresses UPWARD.
    "kernel:damageTree:256:ns_per_op": 60.0,
    # zoo-dense's per-round passes at n = 2048: one randomNonsplitGraph
    # (repair included) and one isNonsplit; absolute ns, upward.
    "kernel:nonsplitGraph:2048:ns_per_op": 60.0,
    "kernel:isNonsplit:2048:ns_per_op": 60.0,
    # zoo-sparse's generator: one native edge-markovian step at n = 65536
    # (deaths, births merged with the survivors, arc decode); absolute
    # ns, upward.
    "kernel:edgeMarkovianRound:65536:ns_per_op": 60.0,
    # The per-move cost every adversary shares (one RootedTree built by
    # makePath at n = 256) and one whole greedy-delay round on a fixed
    # n = 256 mid-game state (the thm31 and served workloads' dominant
    # layer); absolute ns, upward.
    "kernel:rootedTree:256:ns_per_op": 60.0,
    "kernel:greedyDelayRound:256:ns_per_op": 60.0,
    # One local-search round on a fixed n = 256 mid-game state (its 65
    # scored path orders); absolute ns, upward.
    "kernel:localSearchRound:256:ns_per_op": 60.0,
    # Search-core counters: deterministic for the fixed seed/size the
    # harness uses (quick and full run the same search), so the slack only
    # absorbs deliberate tuning of the move pool or pruning rules.
    # beam_unique_states regresses UPWARD (a fatter search for the same
    # witness); beam_rounds and the hit rates regress downward.
    "sweep:beam_unique_states": 10.0,
    "sweep:beam_rounds": 10.0,
    "sweep:transposition_hit_rate": 25.0,
    "sweep:lookahead_tt_hit_rate": 25.0,
    # Experiment service: the warm pass re-runs the same specs against a
    # populated result cache, so it must execute no task at all. A
    # deterministic count, gated exactly (baseline 0, regresses upward).
    # The cold/warm time ratio is reported but not gated: both passes
    # fsync every record, and faster execution shrinks the cold pass.
    "sweep:service_warm_executed": 0.0,
}


def flatten(kernels_doc, sweep_doc):
    """All gateable metrics of one perf_harness run, keyed per schema."""
    out = {}
    for k in kernels_doc.get("kernels", []):
        prefix = "kernel:%s:%d" % (k["name"], k["bits"])
        out[prefix + ":gib_per_s"] = k.get("gib_per_s", 0.0)
        out[prefix + ":ns_per_op"] = k.get("ns_per_op", 0.0)
    for field in ("product_blocked_speedup", "portfolio_ms",
                  "frontier_sparse_speedup", "frontier_dense_ms",
                  "frontier_sparse_ms", "beam_rounds",
                  "beam_unique_states", "beam_moves_generated",
                  "beam_eval_dedup_ratio", "transposition_hit_rate",
                  "beam_arena_peak_nodes", "beam_ms", "lookahead_nodes",
                  "lookahead_tt_hit_rate", "service_cold_ms",
                  "service_warm_ms", "service_cold_specs_per_s",
                  "service_warm_specs_per_s", "service_warm_speedup",
                  "service_warm_executed", "service_warm_cache_hits"):
        if field in sweep_doc:
            out["sweep:" + field] = sweep_doc[field]
    return out


def lower_is_better(key):
    # Work counters (states, nodes, executed tasks) and times regress by
    # growing; the throughput/ratio/round/hit metrics regress by shrinking.
    return (key.endswith("ns_per_op") or key.endswith("_ms")
            or key.endswith("unique_states") or key.endswith("_nodes")
            or key.endswith("_executed"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--kernels", required=True)
    ap.add_argument("--sweep", required=True)
    ap.add_argument("--write-baseline", action="store_true",
                    help="regenerate the baseline from the current run")
    args = ap.parse_args()

    with open(args.kernels) as f:
        kernels_doc = json.load(f)
    with open(args.sweep) as f:
        sweep_doc = json.load(f)
    current = flatten(kernels_doc, sweep_doc)

    if args.write_baseline:
        metrics = {}
        for key, tol in DEFAULT_GATES.items():
            if key not in current:
                sys.exit("cannot write baseline: %s missing from run" % key)
            metrics[key] = {"value": round(current[key], 4),
                            "tolerance_pct": tol}
        doc = {"schema": "dynbcast-bench-baseline/1", "metrics": metrics}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print("wrote %s (%d gated metrics)" % (args.baseline, len(metrics)))
        return

    with open(args.baseline) as f:
        baseline = json.load(f)
    if baseline.get("schema") != "dynbcast-bench-baseline/1":
        sys.exit("unrecognized baseline schema")

    failures = []
    print("%-42s %10s %10s %8s  %s"
          % ("metric", "baseline", "current", "tol%", "status"))
    for key, spec in sorted(baseline["metrics"].items()):
        base, tol = spec["value"], spec["tolerance_pct"]
        if key not in current:
            print("%-42s %10.3f %10s %8.0f  MISSING" % (key, base, "-", tol))
            failures.append(key)
            continue
        cur = current[key]
        if lower_is_better(key):
            bad = cur > base * (1.0 + tol / 100.0)
        else:
            bad = cur < base * (1.0 - tol / 100.0)
        status = "REGRESSION" if bad else "ok"
        print("%-42s %10.3f %10.3f %8.0f  %s" % (key, base, cur, tol, status))
        if bad:
            failures.append(key)

    if failures:
        print("\nFAIL: %d metric(s) regressed beyond tolerance: %s"
              % (len(failures), ", ".join(failures)))
        print("(runner variance? re-run, regenerate the baseline with "
              "--write-baseline, or push with [bench-skip] in the commit "
              "message)")
        sys.exit(1)
    print("\nOK: all gated metrics within tolerance.")


if __name__ == "__main__":
    main()
