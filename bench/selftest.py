"""Tests of the benchmark itself: each check rejects a wrong output, a tiny
run of every workload passes, and run.py keeps its output contract.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from spans import Spans  # noqa: E402
from structrec.evaluation import TraceJudgment  # noqa: E402

TINY = {
    "gen": dict(size=40, trees=20, test=8),
    "score": dict(n=300),
    "replay": dict(short=30, trees=20, long_bits=(16, 24)),
    "shortcut": dict(size=150),
}


def tiny(name: str, work: Path, seed: int = 7, load: bool = True):
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, work, **TINY[name])
    workload.prepare()
    if load:
        workload.load()
    return workload


def run_round(workload):
    outputs, _, _ = worker.timed_round(workload.calls())
    return outputs


class WorkDir(unittest.TestCase):
    def setUp(self):
        self.work = Path(tempfile.mkdtemp(prefix="structrec-bench-"))
        self.addCleanup(shutil.rmtree, self.work, True)


class TinyRuns(WorkDir):
    def test_every_workload_passes_its_checks(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = tiny(name, self.work / name)
                if hasattr(workload, "check_records"):
                    self.assertEqual(workload.check_records().failed, 0)
                for _ in range(2):  # the second round also checks determinism
                    result = workload.check(run_round(workload))
                    self.assertEqual((result.failed, result.wrong), (0, False), result.notes)

    def test_same_seed_same_inputs(self):
        first = tiny("replay", self.work / "a", seed=3).path.read_bytes()
        self.assertEqual(first, tiny("replay", self.work / "b", seed=3).path.read_bytes())
        self.assertNotEqual(first, tiny("replay", self.work / "c", seed=4).path.read_bytes())

    def test_traced_round_restores_the_program(self):
        from structrec import evaluation, reduction

        workload = tiny("replay", self.work, load=False)
        originals = (evaluation.validate_trace, evaluation.step_single, reduction.step_single)
        spans = Spans()
        spans.install(workload.targets(spans))
        workload.load()
        outputs, _, _ = worker.timed_round(workload.calls(), spans)
        spans.uninstall()
        self.assertEqual(workload.check(outputs).failed, 0)
        self.assertEqual(originals, (evaluation.validate_trace, evaluation.step_single,
                                     reduction.step_single))
        figures = worker.layer_figures(workload, spans)
        self.assertTrue(all(f["calls"] > 0 and f["value"] > 0 for f in figures.values()),
                        figures)


class ChecksRejectWrongOutputs(WorkDir):
    def test_score_report_with_exact_match_off_by_one(self):
        workload = tiny("score", self.work)
        doc = copy.deepcopy(workload.expected)
        doc["exact_match"] = (doc["exact_match"] * doc["n"] + 1) / doc["n"]
        result = workload.check([json.dumps(doc)])
        self.assertEqual((result.failed, result.wrong), (workload.n, True))
        self.assertEqual(workload.check([json.dumps(workload.expected)]).failed, 0)

    def test_score_bucket_and_signature_counts(self):
        workload = tiny("score", self.work)
        for path in (("breakdowns", "edge_group", 0, "correct"), ("failures", "other")):
            doc = copy.deepcopy(workload.expected)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
            self.assertTrue(workload.check([json.dumps(doc)]).wrong, path)

    def test_miss_candidates_get_their_label(self):
        from structrec.evaluation import failure_signature

        rng = random.Random(0)
        for n in (1, 2, 3, 6, 255, 1000):
            target = oracle.encode(n + 1)
            for label in workloads.MISS_LABELS:
                self.assertEqual(failure_signature(workloads.miss(target, label, rng), target),
                                 label)

    def test_successor_target_off_by_one(self):
        inverse = {"a": "X0", "b": "X1", "c": "01"}
        spell = {v: k for k, v in inverse.items()}

        def record(target_value):
            tokens = [spell[t] for t in oracle.encode(11)]
            return {"id": "succ-reverse-11", "input": ["PAD"] + tokens,
                    "target": ["PAD"] + [spell[t] for t in oracle.encode(target_value)],
                    "meta": {"value": 11, "bits": 4, "depth": 3, "edge_group": 2,
                             "pad_len": 1}}

        self.assertTrue(workloads.successor_record_ok(record(12), inverse, 3))
        self.assertFalse(workloads.successor_record_ok(record(13), inverse, 3))
        self.assertFalse(workloads.successor_record_ok(record(12), inverse, 0))

    def test_gen_rejects_a_rewritten_file(self):
        workload = tiny("gen", self.work)
        self.assertEqual(workload.check(run_round(workload)).failed, 0)
        path = workload.out / "successor_reverse.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")
        result = workload.check([(0, "")] * 3)
        self.assertTrue(result.wrong)
        self.assertEqual(result.failed, workload.command_items[0])

    def test_traversal_target_split_and_quotas(self):
        tree = ("a", ("b", None, None), None)
        rec = {"task": "inorder", "input": oracle.serialize(tree),
               "target": ["b", "a"], "meta": {"depth": 2}}
        self.assertTrue(workloads.traversal_record_ok(rec, "inorder", (1, 6)))
        self.assertFalse(workloads.traversal_record_ok(rec, "preorder", (1, 6)))
        self.assertFalse(workloads.traversal_record_ok(rec, "inorder", (3, 6)))
        self.assertEqual(workloads.split_overlap([rec], [dict(rec)]), 2)
        self.assertTrue(workloads.quotas_met([rec], 1, (2, 3)))
        self.assertFalse(workloads.quotas_met([rec], 1, (3, 4)))

    def test_uncorrupted_trace_judged_invalid(self):
        self.assertTrue(workloads.judgment_ok(TraceJudgment(True), ("valid", None)))
        self.assertFalse(workloads.judgment_ok(TraceJudgment(False, 1, "illegal-rule"),
                                               ("valid", None)))
        self.assertFalse(workloads.judgment_ok(TraceJudgment(False, 2, "token-mutation"),
                                               ("bad", 3)))
        self.assertFalse(workloads.judgment_ok(TraceJudgment(False, 4, "illegal-rule"),
                                               ("missing", 4)))
        workload = tiny("replay", self.work)
        judgments = run_round(workload)
        valid = next(i for i, item in enumerate(workload.items) if item["expect"][0] == "valid")
        judgments[valid] = TraceJudgment(False, 1, "illegal-rule")
        result = workload.check(judgments)
        self.assertEqual((result.failed, result.wrong), (1, True))

    def test_trace_records_that_do_not_end_at_the_successor(self):
        item = workloads._successor_item(11, "short")
        item["expect"] = ("valid", None)

        class Rec:
            task, input = "successor", oracle.encode(11)
            trace = " = ".join(" ".join(s) for s in item["states"])

        self.assertTrue(workloads.trace_record_ok(Rec, item))
        item["states"] = item["states"][:-1] + [oracle.encode(13)]
        Rec.trace = " = ".join(" ".join(s) for s in item["states"])
        self.assertFalse(workloads.trace_record_ok(Rec, item))

    def test_shortcut_disagreements(self):
        edge = {7, 15}

        def row(value, label="one-token-short"):
            expected = list(reversed(oracle.encode(value + 1)))
            return {"value": value, "bits": value.bit_length(), "edge_group": 1,
                    "expected": expected, "got": expected[1:], "label": label}

        self.assertEqual(workloads.disagreements_wrong([row(7), row(15)], edge), 0)
        self.assertEqual(workloads.disagreements_wrong([row(7)], edge), 1)
        self.assertEqual(workloads.disagreements_wrong([row(7), row(15), row(11)], edge), 1)
        self.assertEqual(workloads.disagreements_wrong([row(7), row(15, "other")], edge), 1)


class RunContract(unittest.TestCase):
    def test_last_line_is_the_result(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "shortcut",
                               "--seed", "2", "--seconds", "1"],
                              capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})

    def test_fails_without_the_program(self):
        bare = Path(tempfile.mkdtemp(prefix="structrec-bare-"))
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "gen", "--seed", "1", "--seconds", "1"],
                              capture_output=True, text=True, cwd=bare, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
