"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twistlab import cli, diagram, kauffman, notation, verify  # noqa: E402

MODS = {"cli": cli, "verify": verify, "kauffman": kauffman,
        "diagram": diagram, "notation": notation}


def _tmpdir(test: unittest.TestCase) -> str:
    d = tempfile.mkdtemp(prefix="perfbench-test-")
    test.addCleanup(shutil.rmtree, d, True)
    return d


def _pd_spec(workdir, code_text, mirrored, expect=None, seed=0):
    """One pd op on a small code, optionally with a chosen --expect."""
    code = notation.parse_conway(code_text)
    path = os.path.join(workdir, f"{code_text.replace(' ', '_')}-{int(mirrored)}.jsonl")
    pd = workloads.scrambled_pd(random.Random(seed), code, mirrored)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"name": code_text, "pd": pd}) + "\n")
    u = expect or reference.expected_u(code.entries, mirrored)
    return (path, code_text, mirrored, ",".join(map(str, u)))


class SeededInputs(unittest.TestCase):
    def _inputs(self, name, seed):
        d = _tmpdir(self)
        wl = workloads.make(name, seed, d)
        files = {f: pathlib.Path(d, f).read_bytes() for f in sorted(os.listdir(d))}
        rounds = [[s if not isinstance(s, tuple) else (os.path.basename(s[0]),) + s[1:]
                   for s in rnd] for rnd in wl.rounds]
        return repr(rounds), files

    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                self.assertEqual(self._inputs(name, 11), self._inputs(name, 11))

    def test_other_seed_other_inputs(self):
        for name in ("query", "pd"):
            with self.subTest(workload=name):
                self.assertNotEqual(self._inputs(name, 11), self._inputs(name, 12))

    def test_every_round_runs_every_op_once(self):
        for name in workloads.NAMES:
            wl = workloads.make(name, 3, _tmpdir(self))
            self.assertEqual(len(set(wl.specs)), len(wl.specs))
            for order in wl.rounds:
                self.assertEqual(sorted(map(str, order)), sorted(map(str, wl.specs)))

    def test_drawn_codes_cover_every_sites_count(self):
        wl = workloads.make("query", 5, _tmpdir(self))
        drawn = [notation.parse_conway(s) for s in wl.specs
                 if notation.parse_conway(s).crossings == workloads.QUERY_DRAWN]
        self.assertEqual(sorted(c.sites for c in drawn), list(range(1, workloads.QUERY_DRAWN - 1)))


class WrongResultsAreCounted(unittest.TestCase):
    def setUp(self):
        self.ref = reference.load()
        self.workdir = _tmpdir(self)

    def _phase(self, wl, ref=None):
        ph = run.Phase(wl, ref or self.ref).run(1e-9)
        ph.check_end()
        return ph

    def _pd(self, specs):
        wl = workloads.make("pd", 0, _tmpdir(self))
        wl.rounds = [specs]
        return wl

    def test_reference_passes_small_pd_and_mirror(self):
        wl = self._pd([_pd_spec(self.workdir, "2 1 2", False),
                       _pd_spec(self.workdir, "3 1 2", True)])
        ph = self._phase(wl)
        self.assertEqual((ph.ops, ph.failures), (2, []))

    def test_wrong_expect_fails_the_op(self):
        wl = self._pd([_pd_spec(self.workdir, "2 1 2", False),
                       _pd_spec(self.workdir, "3 1 2", False, expect=(2, 3, 1))])
        ph = self._phase(wl)
        self.assertEqual([spec[1] for spec, _ in ph.failures], ["3 1 2"])
        self.assertIn("exit status 1", ph.failures[0][1])
        self.assertEqual(ph.nonzero_exits, 1)

    def test_wrong_digest_fails_pd(self):
        wl = self._pd([_pd_spec(self.workdir, "2 1 2", True),
                       _pd_spec(self.workdir, "3 1 2", True)])
        ref = dict(self.ref, **{"3 1 2": "0" * 24})
        ph = self._phase(wl, ref)
        self.assertEqual([spec[1] for spec, _ in ph.failures], ["3 1 2"])
        self.assertIn("reference digest", ph.failures[0][1])

    def test_wrong_digest_fails_query(self):
        wl = workloads.make("query", 0, self.workdir)
        wl.rounds = [["2 1 2", "4 2", "2 1 2"]]
        ref = dict(self.ref, **{"2 1 2": "0" * 24})
        ph = self._phase(wl, ref)
        self.assertEqual(ph.ops, 3)
        self.assertEqual([spec for spec, _ in ph.failures], ["2 1 2", "2 1 2"])

    def test_repeats_far_faster_than_cold_calls_fail_every_call(self):
        wl = workloads.make("query", 0, self.workdir)
        wl.rounds = [["2 1 2", "4 2"]]
        ph = run.Phase(wl, self.ref)
        for _ in range(3):
            ph.run_round()
        typical = {spec: statistics.median(v) for spec, v in ph.lat.items()}
        ratio = ph.check_cold({spec: t * 1.2 for spec, t in typical.items()})
        self.assertAlmostEqual(ratio, 1.2)
        self.assertEqual(ph.failures, [])
        ratio = ph.check_cold({spec: t * 10 for spec, t in typical.items()})
        self.assertAlmostEqual(ratio, 10)
        self.assertEqual(len(ph.failures), ph.ops)
        self.assertIn("state kept between calls", ph.failures[0][1])

    def test_expected_u_formula(self):
        self.assertEqual(reference.expected_u((2,)), (0, 1, 0))
        self.assertEqual(reference.expected_u((3,)), (0, 1, 1))
        self.assertEqual(reference.expected_u((2, 1, 1, 1, 2)), (2, 5, 3))
        self.assertEqual(reference.expected_u((2, 1, 1, 1, 2), mirrored=True), (3, 5, 2))


class SelfTime(unittest.TestCase):
    def test_nested_recursive_and_overlapping(self):
        sp = spans.Spans()
        root, lam, other = sp.add_site("bench", "op"), sp.add_site("k", "_lambda"), sp.add_site("d", "x")
        r = sp.append(root, 0, 100, -1, 1)
        a = sp.append(lam, 10, 40, r, 1)      # _lambda
        sp.append(lam, 15, 25, a, 1)          # recursive _lambda inside it
        b = sp.append(other, 50, 90, r, 1)
        sp.append(other, 55, 60, b, 1)        # two overlapping children:
        sp.append(other, 58, 70, b, 1)        # union 55..70 counts once
        sp.append(other, 85, 95, b, 1)        # runs past its parent: clipped
        self.assertEqual(list(spans.self_times(sp)), [30, 20, 10, 20, 5, 12, 10])

    def test_summary_splits_ops_and_setup(self):
        sp = spans.Spans()
        s = sp.add_site("k", "_lambda")
        sp.append(s, 0, 10, -1, spans.OP_SETUP)
        o = sp.append(s, 20, 50, -1, 1)
        sp.append(s, 30, 40, o, 1)
        sp.append(s, 60, 70, -1, spans.OP_NONE)
        summ = spans.summarize(sp, spans.self_times(sp))
        self.assertEqual(summ, {"calls": [2], "self_ns": [30], "setup_ns": [10]})

    def test_save_and_load_round_trip(self):
        sp = spans.Spans()
        s = sp.add_site("k", "_lambda")
        sp.append(s, 1, 9, -1, 3)
        sp.errors[s] = 2
        path = os.path.join(_tmpdir(self), "t.bin")
        sp.save(path)
        back = spans.Spans.load(path)
        self.assertEqual((back.sites, list(back.end), back.errors), ([("k", "_lambda")], [9], {0: 2}))


class Tracing(unittest.TestCase):
    def test_traced_values_match_and_originals_return(self):
        before = {name: dict(vars(m)) for name, m in MODS.items()}
        laurent = dict(vars(kauffman.LaurentPoly2))
        code = notation.parse_conway("2 1 1 2")
        plain = kauffman.lambda_poly(diagram.build_standard(code))
        tr = spans.Tracer(MODS, kauffman.LaurentPoly2)
        tr.install()
        try:
            tr.op = 1
            with tr.span("bench.op"):
                traced = kauffman.lambda_poly(diagram.build_standard(code))
        finally:
            tr.uninstall()
        self.assertEqual(traced, plain)
        for name, m in MODS.items():
            self.assertEqual(dict(vars(m)), before[name])
        self.assertEqual(dict(vars(kauffman.LaurentPoly2)), laurent)
        summ = spans.summarize(tr.spans, spans.self_times(tr.spans))
        names = {tr.spans.sites[i][1] for i, c in enumerate(summ["calls"]) if c}
        for want in ("diagram.canonical_key", "diagram.remove_curls", "kauffman._lambda",
                     "kauffman.laurent.add", "diagram._traversal_entries"):
            self.assertIn(want, names)
        root = next(i for i in range(len(tr.spans)) if tr.spans.site[i] == tr._site_for("bench.op"))
        dur = tr.spans.end[root] - tr.spans.start[root]
        self.assertEqual(sum(spans.self_times(tr.spans)), dur)

    def test_reinstall_reuses_wrappers(self):
        orig = diagram.canonical_key
        tr = spans.Tracer(MODS, kauffman.LaurentPoly2)
        for _ in range(3):
            tr.install()
            try:
                self.assertIsNot(diagram.canonical_key, orig)
                with self.assertRaises(RuntimeError):
                    tr.install()
            finally:
                tr.uninstall()
            self.assertIs(diagram.canonical_key, orig)
        sites = len(tr.spans.sites)
        tr.install()
        tr.uninstall()
        self.assertEqual(len(tr.spans.sites), sites)

    def test_tail_leaves_ten_samples_above(self):
        self.assertEqual(run._tail([float(i) for i in range(100)]), (89.0, 90.0, 10))
        self.assertEqual(run._tail([3.0, 1.0]), (3.0, 100.0, 0))


class Checkout(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        d = _tmpdir(self)
        shutil.copytree(HERE, os.path.join(d, HERE.name),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "query", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
