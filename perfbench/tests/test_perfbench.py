"""Tests of the benchmark itself: deterministic inputs, checkers that catch
wrong answers, a tracer that leaves the library as it found it, and the
traced counters on the bundled filter.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import covercalc  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _op(item, answer):
    return [item, answer, 0.001]


class GeneratorsAreDeterministic(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for gen in (inputs.cover_sweep, inputs.filter_table,
                    lambda s: inputs.table_ingest(s, rounds=4),
                    lambda s: inputs.cli_round(s, 3)):
            a, b, c = gen(7), gen(7), gen(8)
            self.assertEqual(json.dumps(a), json.dumps(b))
            self.assertNotEqual(json.dumps(a), json.dumps(c))

    def test_cost_shape_does_not_depend_on_the_seed(self):
        for seed in range(3):
            spec = inputs.table_ingest(seed, rounds=4)
            self.assertEqual(sum(e is None for e in spec["expected"]), 4 * inputs.INGEST_CORRUPT)
            ft = inputs.filter_table(seed)
            n = len(ft["base"])
            for r in range(0, len(ft["targets"]), n // 2 + 1):
                uses = [0] * n
                for t in ft["targets"][r:r + n // 2 + 1]:
                    for s in ft["summands"][t["name"]]:
                        uses[ft["base"].index(s)] += 1
                self.assertEqual(sorted(uses), [1] * (n - 1) + [2])
            self.assertEqual(len({t["name"] for t in ft["targets"]}), n * (n + 1) // 2)

    def test_torus_polynomials(self):
        self.assertEqual(inputs.torus_alexander(2, 3), [1, -1, 1])
        self.assertEqual(inputs.torus_alexander(3, 4), [1, -1, 0, 1, 0, -1, 1])


class CheckersCatchWrongAnswers(unittest.TestCase):
    def test_cover_sweep(self):
        spec = inputs.cover_sweep(1)
        knots = {k.name: k for k in covercalc.bundled_table()}
        knots.update((k.name, k) for k in covercalc.load_table(spec["table"]))
        ops = []
        for name, n in [("3_1#6_1", 5), ("T(3,4)", 24), ("5_2+T(2,7)", 40)]:
            k = knots[name]
            ops.append(_op([name, n], [covercalc.fox_order(k, n).order,
                                       covercalc.is_zp_homology_sphere(k, n, 2),
                                       covercalc.is_zp_homology_sphere(k, n, 3)]))
        self.assertEqual(run.check_cover_sweep(spec, ops, {0, 1, 2}), [])
        for i, j, change in [(0, 0, lambda o: o + 2), (1, 1, lambda f: not f),
                             (2, 0, lambda o: o * 3), (2, 2, lambda f: not f)]:
            bad = copy.deepcopy(ops)
            bad[i][1][j] = change(bad[i][1][j])
            self.assertEqual([p[0] for p in run.check_cover_sweep(spec, bad, {0, 1, 2})][:1], [i])

    def test_filter_table(self):
        spec = inputs.filter_table(1)
        table = covercalc.load_table(spec["table"])
        target = spec["targets"][0]["name"]
        right = covercalc.filter_predecessors(
            covercalc.load_table([spec["targets"][0]]).get(target), table)
        self.assertEqual(run.check_filter_table(spec, [_op(target, right)]), [])
        wrong = [n for n in table.names() if n not in right][:1] + right
        self.assertEqual(len(run.check_filter_table(spec, [_op(target, wrong)])), 1)
        self.assertEqual(len(run.check_filter_table(spec, [_op(target, right[1:])])), 1)

    def test_filter_reference_matches_bundled_filter(self):
        table = covercalc.bundled_table()
        base = [r for r in inputs.bundled_records().values() if r["name"] != "unknot"]
        ref = oracle.FilterReference(base)
        rows = [(k.name, [k.name]) for k in table if k.name != "unknot"]
        for name, summands in rows:
            self.assertEqual(ref.predecessors((name, summands), rows),
                             [n for n in covercalc.filter_predecessors(table.get(name), table)
                              if n != "unknot"])

    def test_table_ingest(self):
        spec = inputs.table_ingest(1, rounds=2)
        good = spec["expected"].index(next(e for e in spec["expected"] if e))
        bad = spec["expected"].index(None)
        right = spec["expected"][good]
        self.assertEqual(run.check_table_ingest(spec, [_op(good, right), _op(bad, "rejected")]), [])
        wrong = copy.deepcopy(right)
        wrong[-1][1][0] += 1
        for ops in ([_op(good, wrong)], [_op(good, "rejected")], [_op(bad, right)],
                    [_op(good, {"error": "boom"})]):
            self.assertEqual(len(run.check_table_ingest(spec, ops)), 1)

    def test_cli_mix(self):
        argv, stdin = list(inputs.CLI_KNOWN_STRICT_FAIL), ""
        code, out = run.cli_in_process(argv, stdin)
        self.assertEqual(code, 1)
        ok = [argv, stdin, 1, out.encode(), b"", 0.1]
        self.assertEqual(run.check_cli_mix([ok]), [])
        for i, value in ((2, 0), (3, out.encode() + b"\n"), (3, b"")):
            bad = list(ok)
            bad[i] = value
            self.assertEqual(len(run.check_cli_mix([bad])), 1)

    def test_modular_order_check(self):
        f = [-2, 7, -9, 7, -2]
        k = covercalc.bundled_table().get("3_1#6_1")
        for n in (1, 6, 30, 77):
            order = covercalc.fox_order(k, n).order
            self.assertTrue(oracle.order_matches(f, n, order))
            self.assertFalse(oracle.order_matches(f, n, order + 1))
            if n <= oracle.FILTER_MAX_N:
                self.assertEqual(oracle.exact_cover_order(f, n), order)


class WorkerStreamsItsRecords(unittest.TestCase):
    def test_records_are_written_as_made_and_the_end_is_reported(self):
        out = io.StringIO()
        clock = speed.Clock()
        self.assertEqual(worker.run_ops(((i, i) for i in range(3)), lambda x: 1 // x, out, clock),
                         (3, True))
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        self.assertEqual([r[:2] for r in records],
                         [[0, {"error": "ZeroDivisionError('integer division or modulo by zero')"}],
                          [1, 1], [2, 0]])
        # the kernel ran before the first operation and after the last
        self.assertLess(clock.samples[0][0], records[0][3])
        self.assertGreater(clock.samples[-1][0], records[-1][3] + records[-1][2])
        self.assertEqual(worker.run_ops(((i, i) for i in range(3)), abs, io.StringIO(),
                                        speed.Clock(), speed.Budget(0)),
                         (0, False))


class SpeedScaling(unittest.TestCase):
    def test_each_span_is_scaled_by_the_samples_near_it(self):
        nominal = speed.CAL_NOMINAL_S
        samples = [[0.0, nominal], [1.0, nominal], [10.0, 2 * nominal], [10.2, 2 * nominal]]
        self.assertEqual(speed.scale([(0.2, 0.5), (10.05, 0.1), (20.0, 1.0)], samples),
                         [0.5, 0.05, 0.5])
        self.assertEqual(speed.factor(samples), 2 / 3)

    def test_a_budget_counts_scaled_time_and_stops_at_its_wall_cap(self):
        clock = speed.Clock()
        clock.samples = [[0.0, 2 * speed.CAL_NOMINAL_S]]  # a machine at half speed
        budget = speed.Budget(1.0)
        budget.spend(1.0, clock)
        self.assertFalse(budget.done())
        budget.spend(1.0, clock)
        self.assertTrue(budget.done())
        self.assertTrue(speed.Budget(1.0, wall_s=0).done())


class TracerRestoresTheLibrary(unittest.TestCase):
    def _snapshot(self):
        return {name: dict(vars(mod)) for name, mod in sys.modules.items()
                if name == "covercalc" or name.startswith("covercalc.")}

    def test_every_wrapped_attribute_is_restored(self):
        import covercalc.cli  # noqa: F401  the cli module is traced too

        before = self._snapshot()
        table = covercalc.bundled_table()
        with Tracer() as tracer:
            self.assertIsNot(sys.modules["covercalc.covers"].resultant,
                             before["covercalc.covers"]["resultant"])
            self.assertIsNot(covercalc.obstruct, before["covercalc"]["obstruct"])
            covercalc.filter_predecessors(table.get("granny"), table)
            run.cli_in_process(["cover", "3_1", "--n", "1..6"], "")
        after = self._snapshot()
        for mod, attrs in before.items():
            for key, value in attrs.items():
                self.assertIs(after[mod][key], value, f"{mod}.{key}")
        self.assertEqual(set(tracer.summary()), set(TRACED) | {
            f"knots.alexander_from_seifert.g{g}" for g in (0, 1, 2)})

    def test_restored_after_an_exception(self):
        before = covercalc.fox_order
        with self.assertRaises(ValueError), Tracer():
            covercalc.fox_order(covercalc.bundled_table().get("3_1"), 0)
        self.assertIs(covercalc.fox_order, before)


class TracedCountersOnTheBundledFilter(unittest.TestCase):
    def test_redundancy_figures(self):
        table = covercalc.bundled_table()
        with Tracer() as tracer:
            for k in table:
                covercalc.filter_predecessors(k, table)
        s = tracer.summary()
        got = {name: (s[name]["calls"], s[name]["distinct"]) for name in
               ("obstruct.alexander_divides", "covers.skp_set", "covers.fox_order")}
        self.assertEqual(got, {"obstruct.alexander_divides": (1280, 100),
                               "covers.skp_set": (900, 30),
                               "covers.fox_order": (472, 118)})


class BenchmarkJsonMatchesTheRunner(unittest.TestCase):
    def test_metric_lists(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         [(k, u, b) for k, (u, b) in run.END_TO_END.items()])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
