"""Self-tests of the benchmark harness, not of cycstat.

    python3 perfbench/selftest.py

They run a few cheap CLI commands and none of the benchmark's workloads, so
they take seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
import unittest

import run
import tracing

sys.path.insert(0, str(run.SRC))
import cycstat  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CHEAP = ("moment", "exc", "-d", "1")


def _deadline() -> float:
    return time.monotonic() + 120


def _namespaces():
    """Every module of cycstat and every class defined in one."""
    for info in pkgutil.iter_modules(cycstat.__path__):
        module = importlib.import_module(f"cycstat.{info.name}")
        yield module
        for _, value in inspect.getmembers(module, inspect.isclass):
            if value.__module__ == module.__name__:
                yield value


def _snapshot() -> dict:
    return {
        (space.__name__, name): value
        for space in _namespaces()
        for name, value in list(vars(space).items())
    }


def _traced(argv) -> tuple[int, str, dict]:
    """Run tracing.main in this process; return exit code, stdout and the
    span file's contents."""
    spans = run.OUT / "selftest" / "spans.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cache = spans.with_name("cache.json")
    cache.write_bytes(b"")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tracing.main([str(spans), "0", *argv, "--cache", str(cache)])
    return code, out.getvalue(), json.loads(spans.read_text())


class TracerRestoresOriginals(unittest.TestCase):
    def test_every_original_is_back_after_a_command(self):
        before = _snapshot()
        code, _, data = _traced(CHEAP)
        self.assertEqual(code, 0)
        self.assertIn("indicator.moment", data["names"])
        after = _snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_every_original_is_back_after_a_failing_command(self):
        before = _snapshot()
        code, _, data = _traced(("moment", "exc(", "-d", "1"))
        self.assertEqual(code, 2)
        self.assertEqual(data["counters"].get("dsl.errors"), 1)
        after = _snapshot()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_install_replaces_every_named_attribute(self):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module, cls, attr, _ in tracing.SPANS + tracing.COUNTS:
                wrapped = vars(tracing._owner(module, cls))[attr]
                self.assertTrue(hasattr(wrapped, "__wrapped__"), (module, cls, attr))
        finally:
            tracer.restore()


class GoldenOutputs(unittest.TestCase):
    def test_tampered_golden_output_is_a_failed_operation(self):
        workload = run.Workload("selftest", (CHEAP,), warm=False)
        first = run.run_command(CHEAP, run.fresh_cache(workload, "first"), _deadline())
        key = run.command_key(CHEAP)
        golden = {key: {"argv": list(CHEAP), "exit_code": first.exit_code, "stdout": first.stdout}}
        self.assertEqual(run.run_pass(workload, 0, [0], golden, _deadline())["failed"], 0)

        tampered = {key: dict(golden[key], stdout=first.stdout.replace("n", "m", 1))}
        self.assertEqual(run.run_pass(workload, 0, [0], tampered, _deadline())["failed"], 1)
        tampered = {key: dict(golden[key], exit_code=1)}
        self.assertEqual(run.run_pass(workload, 0, [0], tampered, _deadline())["failed"], 1)
        self.assertEqual(run.run_pass(workload, 0, [0], {}, _deadline())["failed"], 1)

    def test_every_workload_command_has_a_golden_output(self):
        golden = json.loads(run.GOLDEN.read_text())
        for workload in run.WORKLOADS.values():
            for argv in workload.commands:
                self.assertEqual(golden[run.command_key(argv)]["exit_code"], 0, argv)


class MetricNames(unittest.TestCase):
    def _declared(self, kind: str) -> dict:
        return {m["name"]: m["unit"] for m in BENCHMARK[kind]}

    def test_end_to_end_names_and_units(self):
        command = {"argv": list(CHEAP), "wall_s": 1.0, "cpu_s": 1.0,
                   "probe_wall_s": 0.05, "probe_cpu_s": 0.05}
        passes = [{"peak_rss_mb": 20.0, "commands": [command]}]
        emitted = run.end_to_end_metrics(passes, [{"seconds": 0.05, "probe_wall_s": 0.05}])
        self.assertEqual({k: v["unit"] for k, v in emitted.items()}, self._declared("end_to_end"))

    def test_per_layer_names_and_units(self):
        _traced(CHEAP)
        spans = run.OUT / "selftest" / "spans.json"
        emitted = run.per_layer_metrics(*run.read_spans([spans]), 0.0)
        self.assertEqual({k: v["unit"] for k, v in emitted.items()}, self._declared("per_layer"))

    def test_reference_pass_sums_each_commands_median(self):
        def command(name, wall, probe):
            return {"argv": [name], "wall_s": wall, "probe_wall_s": probe}

        # relative to the reference loop: a takes 3, 2 and 5; b 2, 4 and 3
        passes = [{"commands": [command("a", 3.0, 1.0), command("b", 1.0, 0.5)]},
                  {"commands": [command("b", 2.0, 0.5), command("a", 4.0, 2.0)]},
                  {"commands": [command("a", 5.0, 1.0), command("b", 3.0, 1.0)]}]
        self.assertAlmostEqual(run.reference_pass(passes, "wall"),
                               (3.0 + 3.0) * run.PROBE_REFERENCE_S)

    def test_workload_names(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(run.WORKLOADS))


class WarmCacheRestore(unittest.TestCase):
    def test_every_pass_starts_from_the_fixture_bytes(self):
        warm = [w for w in run.WORKLOADS.values() if w.warm]
        self.assertEqual(len(warm), 3)
        for workload in warm:
            fixture = run.fixture_path(workload).read_bytes()
            self.assertTrue(json.loads(fixture))
            for _ in range(2):
                path = run.fresh_cache(workload, "pass")
                self.assertEqual(path.read_bytes(), fixture)
                # leave the file as a pass might: rewritten by a command,
                # then damaged
                run.run_command(CHEAP, path, _deadline())
                path.write_text("{}")


if __name__ == "__main__":
    unittest.main()
