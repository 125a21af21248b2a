"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Shows that corrupted or wrong results count as failures, that statistically
equivalent results pass the reference check, that span self time excludes
child spans, that tracing restores every binding it replaced, and that
``BENCHMARK.json`` names the metrics and workloads that ``run.py`` reports.
"""

import json
import sys
import unittest
from pathlib import Path

import run
import spans
import workloads
from workloads import OUT, REFERENCE_SEED, CheckError

CLI = workloads.import_shallowbs().cli
OUT.mkdir(exist_ok=True)


def run_output(argv: list[str]) -> bytes:
    assert CLI.main(argv) == 0, argv
    return Path(workloads.flag(argv, "out")).read_bytes()


def indices(workload: str, label: str, count: int) -> list[int]:
    """The first ``count`` task indices of the given kind."""
    found = [i for i in range(100) if workloads.task_kind(workload, i).label == label]
    return found[:count]


def reference_task(workload: str, index: int) -> tuple[list[str], bytes]:
    argv = workloads.task_argv(workload, REFERENCE_SEED, index, OUT / "selftest.out")
    return argv, run_output(argv)


class OutputChecks(unittest.TestCase):
    def test_reference_tasks_pass(self):
        for workload, index in (("permitted-counting", 2), ("montecarlo", 0), ("exact-kernels", 3)):
            argv, data = reference_task(workload, index)
            summary, digest = workloads.check_output(argv, data)
            reference = workloads.load_reference(workload, REFERENCE_SEED)
            self.assertEqual(digest, reference[index]["sha256"], (workload, index))
            self.assertEqual(workloads.reference_failures(workload, [(index, summary, digest)], reference), {})

    def test_corrupted_count_fails(self):
        argv, data = reference_task("permitted-counting", 2)
        report = json.loads(data)
        beyond = dict(report, exact_count=report["total_outcomes"] + 1)
        with self.assertRaises(CheckError):
            workloads.check_output(argv, json.dumps(beyond).encode())
        # Off by one, with a consistent ratio: plausible on its own, wrong against the reference.
        wrong = dict(report, exact_count=report["exact_count"] + 1)
        wrong["exact_ratio"] = wrong["exact_count"] / wrong["total_outcomes"]
        summary, digest = workloads.check_output(argv, json.dumps(wrong).encode())
        reference = workloads.load_reference("permitted-counting", REFERENCE_SEED)
        self.assertIn(2, workloads.reference_failures("permitted-counting", [(2, summary, digest)], reference))

    def test_corrupted_samples_fail(self):
        argv, data = reference_task("exact-kernels", 1)
        header, first, *rest = data.decode().splitlines()
        value = first.split(",")[0]
        for bad in ("-" + value, "nan", "inf"):
            corrupted = "\n".join([header, first.replace(value, bad, 1), *rest]) + "\n"
            with self.assertRaises(CheckError, msg=bad):
                workloads.check_output(argv, corrupted.encode())
        with self.assertRaises(CheckError):
            workloads.check_output(argv, "\n".join([header, *rest]).encode())

    def test_montecarlo_reference_is_statistical(self):
        reference = workloads.load_reference("montecarlo", REFERENCE_SEED)
        same, redrawn, scaled = [], [], []
        page_curves = indices("montecarlo", "page-curve", 4)
        for index in page_curves:
            argv, data = reference_task("montecarlo", index)
            same.append((index, *workloads.check_output(argv, data)))
            # A different draw order: the same experiment from another seed.
            other = list(argv)
            other[other.index("--seed") + 1] = str(10_000 + index)
            summary, digest = workloads.check_output(other, run_output(other))
            redrawn.append((index, summary, digest))
            # A wrong answer on new draws: every entropy 10% high.
            wrong = {"est": {k: [m * 1.1, e] for k, (m, e) in summary["est"].items()}}
            scaled.append((index, wrong, digest))
        self.assertEqual(workloads.reference_failures("montecarlo", same, reference), {})
        self.assertEqual(workloads.reference_failures("montecarlo", redrawn, reference), {})
        self.assertEqual(set(workloads.reference_failures("montecarlo", scaled, reference)), set(page_curves))
        # On unchanged draws, rounding-level differences pass and a 0.1% error fails.
        for factor, failing in ((1 + 1e-9, set()), (1.001, set(page_curves))):
            nudged = [(i, {"est": {k: [m * factor, e] for k, (m, e) in s["est"].items()}}, "changed")
                      for i, s, _ in same]
            self.assertEqual(set(workloads.reference_failures("montecarlo", nudged, reference)), failing)


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0, 10.0])
        tracer = spans.Tracer(clock=lambda: next(ticks))
        with tracer.span("outer"):          # 0 .. 10
            with tracer.span("middle"):     # 2 .. 5
                with tracer.span("inner"):  # 3 .. 4
                    pass
            with tracer.span("inner"):      # 6 .. 9
                pass
        self.assertEqual(tracer.self_times(), {"outer": (1, 4.0), "middle": (1, 2.0), "inner": (2, 4.0)})
        self.assertEqual(list(tracer.parent), [-1, 0, 1, 0])

    def test_install_wraps_every_binding_and_restores_it(self):
        import shallowbs

        modules = [m for name, m in sys.modules.items()
                   if name == "shallowbs" or name.startswith("shallowbs.")]
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        realize, permanent = shallowbs.arch.realize, shallowbs.matfn.permanent
        generator = vars(shallowbs.linalg.RngStream)["generator"]
        tracer = spans.Tracer()
        index = indices("montecarlo", "frame-potential", 1)[0]
        argv = workloads.task_argv("montecarlo", REFERENCE_SEED, index, OUT / "selftest.out")
        argv[argv.index("--samples") + 1] = "20"
        with tracer.installed(0):
            for module in (shallowbs, shallowbs.arch, shallowbs.cli):
                self.assertIs(module.realize.__wrapped__, realize)
            for module in (shallowbs, shallowbs.matfn, shallowbs.fock, shallowbs.stats):
                self.assertIs(module.permanent.__wrapped__, permanent)
            self.assertIs(vars(shallowbs.linalg.RngStream)["generator"].__wrapped__, generator)
            traced = run_output(argv)
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(before[key] is after[key] for key in before))
        self.assertIs(vars(shallowbs.linalg.RngStream)["generator"], generator)
        self.assertEqual(traced, run_output(argv))
        own = tracer.self_times()
        self.assertEqual(own["arch.realize"][0], 40)
        self.assertEqual(own["linalg.generator"][0], 41)
        self.assertEqual(own["stats.bootstrap_std"][0], 1)
        names = [tracer.names[i] for i in tracer.name_id]
        parents = {names[tracer.parent[i]] for i, name in enumerate(names) if name == "arch.realize"}
        self.assertEqual(parents, {"stats.drivers"})


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
