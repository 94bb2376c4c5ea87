#!/usr/bin/env python3
"""Unit tests for bench/check_bench_regression.py (the CI bench gate).

Stdlib-only (unittest): the container and CI runners both have bare
python3. Registered with ctest as bench_regression_gate_unittests.

Covers the gate's four behaviors:
  * pass: all metrics within tolerance exits 0,
  * regression: a gated metric beyond tolerance exits nonzero and names
    the metric (both directions: throughput down, work-counter up),
  * missing metric: a baseline key absent from the run fails,
  * ratchet: --write-baseline regenerates the file from the current run
    with the DEFAULT_GATES tolerances.
"""

import importlib.util
import json
import os
import sys
import tempfile
import unittest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    os.path.join(_REPO, "bench", "check_bench_regression.py"))
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def kernels_doc(gib=12.0, ns=5.0, tree_ns=400000.0, graph_ns=1.0e7,
                check_ns=6.0e6, step_ns=6.0e7, build_ns=6.0e3,
                round_ns=2.0e6, search_ns=1.0e6):
    return {"kernels": [
        {"name": "orAssign", "bits": 1024, "gib_per_s": gib, "ns_per_op": ns},
        {"name": "orCount", "bits": 1024, "gib_per_s": gib, "ns_per_op": ns},
        {"name": "noisyDamageTree", "bits": 32, "gib_per_s": 0.0,
         "ns_per_op": tree_ns / 100.0},
        {"name": "damageTree", "bits": 256, "gib_per_s": 0.0,
         "ns_per_op": tree_ns},
        {"name": "nonsplitGraph", "bits": 2048, "gib_per_s": 0.0,
         "ns_per_op": graph_ns},
        {"name": "isNonsplit", "bits": 2048, "gib_per_s": 0.0,
         "ns_per_op": check_ns},
        {"name": "edgeMarkovianRound", "bits": 65536, "gib_per_s": 0.0,
         "ns_per_op": step_ns},
        {"name": "rootedTree", "bits": 256, "gib_per_s": 0.0,
         "ns_per_op": build_ns},
        {"name": "greedyDelayRound", "bits": 256, "gib_per_s": 0.0,
         "ns_per_op": round_ns},
        {"name": "localSearchRound", "bits": 256, "gib_per_s": 0.0,
         "ns_per_op": search_ns},
    ]}


def sweep_doc(**overrides):
    doc = {
        "product_blocked_speedup": 2.0,
        "frontier_sparse_speedup": 5.0,
        "beam_unique_states": 1000,
        "beam_rounds": 40,
        "transposition_hit_rate": 0.5,
        "lookahead_tt_hit_rate": 0.5,
        "service_warm_speedup": 6.0,
        "service_warm_executed": 0,
        "service_warm_cache_hits": 40,
    }
    doc.update(overrides)
    return doc


class GateHarness(unittest.TestCase):
    """Drives main() through argv with real temp files, as CI does."""

    def run_gate(self, baseline, kernels, sweep, write_baseline=False):
        """Returns (exit_code, stdout_text, baseline_path)."""
        tmp = tempfile.mkdtemp(prefix="benchgate")
        paths = {}
        for name, doc in (("baseline", baseline), ("kernels", kernels),
                          ("sweep", sweep)):
            paths[name] = os.path.join(tmp, name + ".json")
            if doc is not None:
                with open(paths[name], "w") as f:
                    json.dump(doc, f)
        argv = ["check_bench_regression.py",
                "--baseline", paths["baseline"],
                "--kernels", paths["kernels"],
                "--sweep", paths["sweep"]]
        if write_baseline:
            argv.append("--write-baseline")
        old_argv, old_stdout = sys.argv, sys.stdout
        sys.argv = argv
        import io
        sys.stdout = io.StringIO()
        code = 0
        try:
            gate.main()
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        finally:
            out = sys.stdout.getvalue()
            sys.argv, sys.stdout = old_argv, old_stdout
        return code, out, paths["baseline"]

    def write_fresh_baseline(self):
        code, _, path = self.run_gate(None, kernels_doc(), sweep_doc(),
                                      write_baseline=True)
        self.assertEqual(code, 0)
        with open(path) as f:
            return json.load(f), path


class TestFlatten(unittest.TestCase):
    def test_kernel_and_sweep_keys(self):
        flat = gate.flatten(kernels_doc(gib=7.5, ns=2.0), sweep_doc())
        self.assertEqual(flat["kernel:orAssign:1024:gib_per_s"], 7.5)
        self.assertEqual(flat["kernel:orAssign:1024:ns_per_op"], 2.0)
        self.assertEqual(flat["sweep:product_blocked_speedup"], 2.0)
        self.assertEqual(flat["kernel:damageTree:256:ns_per_op"], 400000.0)

    def test_unknown_sweep_fields_ignored(self):
        flat = gate.flatten({"kernels": []}, {"not_a_gate": 1.0})
        self.assertEqual(flat, {})


class TestDirection(unittest.TestCase):
    def test_lower_is_better_classification(self):
        self.assertTrue(gate.lower_is_better("kernel:x:1024:ns_per_op"))
        self.assertTrue(gate.lower_is_better("sweep:portfolio_ms"))
        self.assertTrue(gate.lower_is_better("sweep:beam_unique_states"))
        self.assertTrue(gate.lower_is_better("sweep:lookahead_nodes"))
        self.assertTrue(gate.lower_is_better("sweep:service_warm_executed"))
        self.assertFalse(gate.lower_is_better("kernel:x:1024:gib_per_s"))
        self.assertFalse(gate.lower_is_better("sweep:product_blocked_speedup"))
        self.assertFalse(gate.lower_is_better("sweep:beam_rounds"))


class TestGate(GateHarness):
    def test_pass_within_tolerance(self):
        baseline, _ = self.write_fresh_baseline()
        # 10% throughput dip sits inside the 60% kernel tolerance.
        code, out, _ = self.run_gate(baseline, kernels_doc(gib=10.8),
                                     sweep_doc())
        self.assertEqual(code, 0)
        self.assertIn("OK: all gated metrics within tolerance.", out)
        self.assertNotIn("REGRESSION", out)

    def test_throughput_regression_beyond_tolerance_fails(self):
        baseline, _ = self.write_fresh_baseline()
        # product_blocked_speedup tolerance is 40%: 2.0 -> 0.5 is a 75%
        # drop.
        code, out, _ = self.run_gate(
            baseline, kernels_doc(), sweep_doc(product_blocked_speedup=0.5))
        self.assertNotEqual(code, 0)
        self.assertIn("REGRESSION", out)
        self.assertIn("sweep:product_blocked_speedup", out)

    def test_work_counter_regresses_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # beam_unique_states (10% tolerance) regresses by GROWING.
        code, out, _ = self.run_gate(
            baseline, kernels_doc(), sweep_doc(beam_unique_states=1200))
        self.assertNotEqual(code, 0)
        self.assertIn("sweep:beam_unique_states", out)
        # The same growth in a throughput metric would NOT fail: check a
        # faster kernel passes.
        code, _, _ = self.run_gate(baseline, kernels_doc(gib=20.0),
                                   sweep_doc())
        self.assertEqual(code, 0)

    def test_damage_tree_time_regresses_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # kernel:damageTree:256:ns_per_op (60% tolerance) regresses by
        # GROWING: 1.5x slower passes, 2x slower fails, faster passes.
        code, _, _ = self.run_gate(baseline, kernels_doc(tree_ns=600000.0),
                                   sweep_doc())
        self.assertEqual(code, 0)
        code, out, _ = self.run_gate(
            baseline, kernels_doc(tree_ns=800000.0), sweep_doc())
        self.assertNotEqual(code, 0)
        self.assertIn("kernel:damageTree:256:ns_per_op", out)
        code, _, _ = self.run_gate(baseline, kernels_doc(tree_ns=100000.0),
                                   sweep_doc())
        self.assertEqual(code, 0)

    def test_nonsplit_times_regress_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # Both zoo-dense passes (60% tolerance) regress by GROWING; a
        # return to the per-pair loops (~6x and ~4x) fails.
        code, _, _ = self.run_gate(
            baseline, kernels_doc(graph_ns=1.5e7, check_ns=9.0e6),
            sweep_doc())
        self.assertEqual(code, 0)
        for overrides, key in (({"graph_ns": 6.0e7},
                                "kernel:nonsplitGraph:2048:ns_per_op"),
                               ({"check_ns": 2.4e7},
                                "kernel:isNonsplit:2048:ns_per_op")):
            code, out, _ = self.run_gate(baseline, kernels_doc(**overrides),
                                         sweep_doc())
            self.assertNotEqual(code, 0)
            self.assertIn(key, out)

    def test_edge_markovian_step_regresses_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # zoo-sparse's generator step (60% tolerance) regresses by
        # GROWING: 1.5x slower passes, a return to the per-birth binary
        # search (~2x) fails.
        code, _, _ = self.run_gate(baseline, kernels_doc(step_ns=9.0e7),
                                   sweep_doc())
        self.assertEqual(code, 0)
        code, out, _ = self.run_gate(baseline, kernels_doc(step_ns=1.2e8),
                                     sweep_doc())
        self.assertNotEqual(code, 0)
        self.assertIn("kernel:edgeMarkovianRound:65536:ns_per_op", out)

    def test_tree_and_greedy_round_times_regress_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # One tree construction and one greedy-delay round at n = 256
        # (60% tolerance) regress by GROWING: 1.5x slower passes, a return
        # to one allocation per node (~4x for the tree) fails.
        code, _, _ = self.run_gate(
            baseline, kernels_doc(build_ns=9.0e3, round_ns=3.0e6),
            sweep_doc())
        self.assertEqual(code, 0)
        for overrides, key in (({"build_ns": 2.4e4},
                                "kernel:rootedTree:256:ns_per_op"),
                               ({"round_ns": 4.0e6},
                                "kernel:greedyDelayRound:256:ns_per_op")):
            code, out, _ = self.run_gate(baseline, kernels_doc(**overrides),
                                         sweep_doc())
            self.assertNotEqual(code, 0)
            self.assertIn(key, out)

    def test_local_search_round_time_regresses_upward(self):
        baseline, _ = self.write_fresh_baseline()
        # One local-search round at n = 256 (60% tolerance): 1.5x slower
        # passes, 2x slower fails.
        code, _, _ = self.run_gate(baseline, kernels_doc(search_ns=1.5e6),
                                   sweep_doc())
        self.assertEqual(code, 0)
        code, out, _ = self.run_gate(baseline, kernels_doc(search_ns=2.0e6),
                                     sweep_doc())
        self.assertNotEqual(code, 0)
        self.assertIn("kernel:localSearchRound:256:ns_per_op", out)

    def test_warm_service_pass_must_execute_nothing(self):
        baseline, _ = self.write_fresh_baseline()
        self.assertEqual(
            baseline["metrics"]["sweep:service_warm_executed"],
            {"value": 0, "tolerance_pct": 0.0})
        # One executed task in the warm pass means a cache miss: fails.
        code, out, _ = self.run_gate(
            baseline, kernels_doc(),
            sweep_doc(service_warm_executed=1, service_warm_cache_hits=39))
        self.assertNotEqual(code, 0)
        self.assertIn("sweep:service_warm_executed", out)
        # The cold/warm time ratio is reported but not gated: a faster
        # cold pass that shrinks it to ~1 still passes.
        self.assertNotIn("sweep:service_warm_speedup", baseline["metrics"])
        code, _, _ = self.run_gate(baseline, kernels_doc(),
                                   sweep_doc(service_warm_speedup=1.1))
        self.assertEqual(code, 0)

    def test_missing_metric_fails(self):
        baseline, _ = self.write_fresh_baseline()
        thin = sweep_doc()
        del thin["transposition_hit_rate"]
        code, out, _ = self.run_gate(baseline, kernels_doc(), thin)
        self.assertNotEqual(code, 0)
        self.assertIn("MISSING", out)
        self.assertIn("sweep:transposition_hit_rate", out)

    def test_unrecognized_schema_rejected(self):
        code, _, _ = self.run_gate({"schema": "bogus/9", "metrics": {}},
                                   kernels_doc(), sweep_doc())
        self.assertNotEqual(code, 0)


class TestRatchet(GateHarness):
    def test_write_baseline_round_trips(self):
        baseline, path = self.write_fresh_baseline()
        self.assertEqual(baseline["schema"], "dynbcast-bench-baseline/1")
        self.assertEqual(set(baseline["metrics"]), set(gate.DEFAULT_GATES))
        for key, spec in baseline["metrics"].items():
            self.assertEqual(spec["tolerance_pct"], gate.DEFAULT_GATES[key])
        # The regenerated baseline gates its own run cleanly.
        code, out, _ = self.run_gate(baseline, kernels_doc(), sweep_doc())
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_write_baseline_requires_every_gated_metric(self):
        partial = sweep_doc()
        del partial["beam_rounds"]
        code, _, _ = self.run_gate(None, kernels_doc(), partial,
                                   write_baseline=True)
        self.assertNotEqual(code, 0)

    def test_ratchet_tightens_after_improvement(self):
        # Regenerating after an improvement moves the floor up: the old
        # (slower) numbers now regress against the new baseline.
        improved = sweep_doc(product_blocked_speedup=4.0)
        code, _, path = self.run_gate(None, kernels_doc(), improved,
                                      write_baseline=True)
        self.assertEqual(code, 0)
        with open(path) as f:
            ratcheted = json.load(f)
        code, out, _ = self.run_gate(ratcheted, kernels_doc(), sweep_doc())
        self.assertNotEqual(code, 0)
        self.assertIn("sweep:product_blocked_speedup", out)


if __name__ == "__main__":
    unittest.main()
