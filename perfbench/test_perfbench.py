"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from oracles import LibraryOracle, check_cli  # noqa: E402
from worker import Checker  # noqa: E402
from workloads import Workload, certificate_summary  # noqa: E402

import vone  # noqa: E402

# the per-layer metrics the benchmark promises
LAYER_METRICS = """
groups.build_ms groups.subgroup_classes_ms groups.table_of_marks_ms groups.weyl_data_ms
groups.calls exactmath.snf_calls exactmath.snf_ms exactmath.snf_cells
exactmath.p_local_in_image_ms exactmath.kernel_basis_ms exactmath.cokernel_ms
exactmath.cyclotomic_mul_calls exactmath.cyclotomic_ms exactmath.bernoulli_ms
repring.rep_mul_calls repring.rep_mul_ms repring.character_table_ms repring.decompose_ms
repring.eigenvalue_ms repring.linearize_ms repring.adams_ms repring.ideal_ms
jtheory.theta_calls jtheory.theta_ms jtheory.adams_bott_ms jtheory.fixed_mod_x_ms
burnside.bmul_calls burnside.bmul_ms burnside.marks_ms burnside.from_marks_ms
powerop.sq1_calls powerop.sq1_ms powerop.pairs certify.calls certify.self_ms
certify.verdict.certified certify.verdict.hypothesis_failed certify.verdict.step_failed
cli.import_ms cli.run_ms cli.parse_ms
""".split()


class _AsGiven(Workload):
    """Records summaries as given, so that a test can hand in a corrupted one."""

    def summarize(self, item, result):
        return result


def _setup(items):
    w = _AsGiven("test", items)
    w.setup()
    return w


def test_corrupted_results_count_as_failures():
    items = [
        {"op": "certify", "group": "C8", "X": {"C2": 1, "C8": 1}, "c": 4, "shape": "orbit+unit"},
        {"op": "marks", "group": "C16", "X": {"e": 2, "C4": -1}},
        {"op": "marks", "group": "C16", "X": {"C2": 1}},
        {"op": "marks", "group": "C16", "X": {"C8": 3}},
    ]
    w = _setup(items)
    G = w.group("C8")
    cert = vone.certify_self_map(G, w.gset("C8", items[0]["X"]), 4 * vone.standard_rep(G, "W"))
    good = certificate_summary(cert)
    assert good["verdict"] == "certified"
    flipped = dict(good, verdict="hypothesis-failed")
    marks = [list(vone.marks(w.gset("C16", it["X"]))) for it in items[1:]]
    wrong_mark = marks[0][:2] + [marks[0][2] + 1] + marks[0][3:]

    checker = Checker(w, items)
    checker.record(0, flipped, None)  # a flipped verdict
    checker.record(0, flipped, None)
    checker.record(1, wrong_mark, None)  # a wrong mark
    checker.record(2, marks[1], None)
    checker.record(2, [0] * 5, None)  # a later round disagrees with the first
    checker.record(3, None, "ZeroDivisionError: boom")  # an exception
    problems = checker.problems(LibraryOracle(w))
    failed, which = checker.failed(problems)
    assert sorted(problems) == [0, 1]
    assert which == [0, 1, 2, 3]
    assert failed == 2 + 1 + 1 + 1
    assert sum(checker.runs) == 6

    clean = Checker(w, items)
    clean.record(0, good, None)
    for i, mk in enumerate(marks, start=1):
        clean.record(i, mk, None)
    assert clean.failed(clean.problems(LibraryOracle(w))) == (0, [])


def test_corrupted_cli_output_counts_as_failure():
    item = corpus._req("marks-table", ["marks", "--group", "C8"], {"group": "C8"})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-m", "vone.cli", *item["argv"]], env=env,
                         capture_output=True, text=True, timeout=60)
    doc = json.loads(out.stdout)
    assert check_cli(item, out.returncode, doc) == []
    doc["rows"]["[C8/e]"][1] = "5"
    assert check_cli(item, out.returncode, doc)
    assert check_cli(item, 2, None)
    doc["schema"] = "99"  # a schema bump alone is not a failure
    doc["rows"]["[C8/e]"][1] = "0"
    assert check_cli(item, out.returncode, doc) == []


def _bytes(items: list) -> bytes:
    return json.dumps(items, sort_keys=True).encode()


def _shape(items: list) -> list:
    """The stratum of every item: what must not depend on the seed."""
    keys = []
    for item in items:
        if item["op"] == "cli":
            keys.append(("cli", item["kind"]))
        elif item["op"] == "certify":
            keys.append(("certify", item["group"], item["shape"]))
        elif item["op"] == "sq1":
            keys.append(("sq1", item["group"][0]))
        else:
            keys.append((item["op"], item["group"]))
    return sorted(keys)


def test_same_seed_same_corpus():
    for w in corpus.WORKLOADS:
        assert _bytes(corpus.generate(w, 7)) == _bytes(corpus.generate(w, 7))


def test_other_seed_other_corpus_same_shape():
    for w in corpus.WORKLOADS:
        a, b = corpus.generate(w, 7), corpus.generate(w, 8)
        assert _bytes(a) != _bytes(b)
        assert _shape(a) == _shape(b)


def test_known_defects_stay_in_the_cold_cli_corpus():
    for seed in range(5):
        kinds = [it["kind"] for it in corpus.generate("cli-cold", seed)]
        assert kinds.count("known-defect") == len(corpus.KNOWN_DEFECTS)


def test_declared_metrics_match_the_report():
    names = set(tracing.layer_metrics(tracing.merge([])))
    assert set(LAYER_METRICS) <= names
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == dict(run.END_TO_END)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    extra = {"trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead_pct"}
    assert set(declared) == names | extra
    assert all(run._unit(name) == unit for name, unit in declared.items())


def test_traced_run_reports_every_layer_metric():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ring-ops",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(LAYER_METRICS) <= set(res["metrics"])
    assert res["metrics"]["powerop.sq1_calls"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ring-ops",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and not out.stdout
