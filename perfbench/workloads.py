"""Set-up, operations and result summaries of the four workloads.

``Workload.setup`` does what a long-lived caller pays once: import ``vone``,
build every group model the corpus names and fill the lazy tables the
workload touches. ``prepare`` turns one corpus item into a zero-argument
call (the timed operation) and ``summarize`` turns its result into plain data
for the oracles. Library calls go through the module attributes at call
time, so the wrappers of a traced round are picked up.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction

from corpus import coeff_vector

CLI_TIMEOUT_S = 60
HERE = os.path.dirname(os.path.abspath(__file__))


def cli_env() -> dict:
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def groups_of(corpus: list) -> list:
    names = set()
    for item in corpus:
        if item["op"] != "cli":
            names.add(item["group"])
        elif item["kind"] not in ("malformed", "known-defect") and "group" in item["expect"]:
            names.add(item["expect"]["group"])
    return sorted(names, key=lambda n: (n[0], int(n[1:])))


class Workload:
    """One workload's corpus, set-up and operations. While ``trace`` is set,
    CLI requests run through clitrace.py, which reports their spans."""

    def __init__(self, name: str, corpus: list):
        self.name = name
        self.corpus = corpus
        self.vone = None
        self.env = cli_env()
        self.trace = False

    # -- set-up

    def setup(self) -> None:
        vone = importlib.import_module("vone")
        if self.name == "cli-cold":
            importlib.import_module("vone.cli")
        self.vone = vone
        sq1_groups = {item["group"] for item in self.corpus if item["op"] == "sq1"}
        product_groups = {item["group"] for item in self.corpus if item["op"] == "rep_mul"}
        for name in groups_of(self.corpus):
            G = self.group(name)
            classes = G.subgroup_classes()
            vone.marks(vone.orbit(G, 0))
            if name[0] == "Q":
                table = vone.character_table(G)
                if name in product_groups:
                    r = len(table.names)
                    for i in range(r):
                        for j in range(i, r):
                            table.product_coeffs(i, j)
            if name in sq1_groups:
                for cls in classes:
                    G.weyl_data(cls.id)

    def group(self, name: str):
        return self.vone.build_group(self.vone.GroupDescriptor.parse(name))

    def gset(self, name: str, X: dict):
        return self.vone.VirtualGSet(self.group(name), coeff_vector(name, X))

    def rep(self, name: str, coeffs):
        """Coefficients as ints or as the strings of a summary."""
        return self.vone.VirtualRep(self.group(name), [Fraction(c) for c in coeffs])

    # -- operations

    def prepare(self, item: dict):
        """A zero-argument callable that performs the timed operation."""
        v = self.vone
        op = item["op"]
        if op == "cli":
            return lambda: self.run_cli(item["argv"])
        G = self.group(item["group"])
        if op == "certify":
            X = self.gset(item["group"], item["X"])
            std = "W" if item["group"][0] == "C" else "H"
            V = item["c"] * v.standard_rep(G, std)
            return lambda: v.certify_self_map(G, X, V)
        if op == "bmul":
            X, Y = self.gset(item["group"], item["X"]), self.gset(item["group"], item["Y"])
            return lambda: v.bmul(X, Y)
        if op == "marks":
            X = self.gset(item["group"], item["X"])
            return lambda: v.marks(X)
        if op == "from_marks":
            values = v.marks(self.gset(item["group"], item["X"]))
            return lambda: v.from_marks(G, values)
        if op == "rep_mul":
            V, W = self.rep(item["group"], item["V"]), self.rep(item["group"], item["W"])
            return lambda: V * W
        if op == "adams":
            V, ell = self.rep(item["group"], item["V"]), item["ell"]
            return lambda: v.adams(ell, V)
        if op == "linearize":
            X = self.gset(item["group"], item["X"])
            return lambda: v.linearize(X)
        if op == "ideal":
            X, side = self.gset(item["group"], item["X"]), item["side"]
            return lambda: v.annihilator_and_quotient(X, side)
        if op == "sq1":
            X = v.orbit(G, 0)  # the free orbit; its group order need not be a prime power
            return lambda: v.sq1_gset(X)
        raise ValueError(f"unknown operation {op!r}")

    def run_cli(self, argv: list):
        if self.trace:
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "vone.cli", *argv]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    # -- summaries

    def summarize(self, item: dict, result):
        op = item["op"]
        if op == "cli":
            code, out, err = result
            try:
                doc = json.loads(out)
            except ValueError:
                doc = None
            return {"exit": code, "doc": doc}
        if op == "certify":
            return certificate_summary(result)
        if op in ("marks",):
            return [int(x) for x in result]
        if op in ("bmul", "from_marks"):
            return [int(x) for x in result.coeffs]
        if op in ("rep_mul", "adams", "linearize"):
            return [str(x) for x in result.coeffs]
        if op == "ideal":
            out = {
                "side": result.side,
                "ann_rank": result.annihilator.free_rank,
                "quot_free": result.quotient.free_rank,
                "quot_factors": [int(x) for x in result.quotient.factors],
                "quot_gens": len(result.quotient.generators),
            }
            if result.side == "RU":
                out["ann_fixed_rank"] = result.annihilator_fixed.free_rank
                out["quot_fixed_free"] = result.quotient_fixed.free_rank
                out["quot_fixed_factors"] = [int(x) for x in result.quotient_fixed.factors]
            return out
        if op == "sq1":
            return [[int(s), [int(x) for x in w]] for s, w in result.components]
        raise ValueError(f"unknown operation {op!r}")

    def pairs(self, item: dict) -> int:
        """|X|^2 of a Sq1 input, from the input alone (powerop.pairs); every
        Sq1 input is a free orbit, so |X| is the group order."""
        if item["op"] == "sq1":
            return int(item["group"][1:]) ** 2
        if item["op"] == "cli" and item["kind"] == "sq1-free":
            return int(item["expect"]["group"][1:]) ** 2
        return 0


def certificate_summary(cert) -> dict:
    par = cert.parameters
    report = cert.step2.report if cert.step2 is not None else None
    return {
        "verdict": cert.verdict,
        "hyp": None if cert.hypothesis is None else cert.hypothesis.passed,
        "params": None if par is None else [
            str(x) for x in (par.p, par.n, par.t, par.c_x, par.k, par.c_v, par.ell)],
        "mult": None if cert.multiplicity is None else str(cert.multiplicity),
        "lam": None if report is None else str(report.lam),
        "val": None if report is None else str(report.valuation),
        "step1": None if cert.step1 is None else cert.step1.passed,
        "step3": None if cert.step3 is None else cert.step3.passed,
        "fixed": None if cert.step2 is None else cert.step2.fixedness,
    }
