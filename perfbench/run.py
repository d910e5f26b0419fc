"""Benchmark of the cycstat CLI: four fixed workloads of real commands.

    python3 perfbench/run.py --workload cold-indicator --seed 1 --seconds 30 --trace 0

Every command runs in a fresh ``python -m cycstat.cli`` process, the way a
user runs it, and its exit code and stdout are checked against the golden
record in ``golden.json``.  A run makes whole passes of the workload until
``--seconds`` would be exceeded, at least one, and with ``--trace 0`` times
the set-up once after every pass.  The seed only orders the commands of
each pass; the commands themselves are fixed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
Every time is taken relative to a fixed reference loop timed right before
and after it, and reported in seconds at a reference speed (see
``at_reference_speed``).  With ``--trace 1`` the run makes one untraced
pass, to measure the tracing overhead against, and one traced pass (see
``tracing.py``), and reports the per-layer metrics.  Everything a run
measures, with the run environment, also goes to ``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracing import HOOK_SPAN, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
FIXTURES = HERE / "fixtures"
OUT = HERE / "out"

# A run must end within 180 s; no command is allowed past this point.
RUN_LIMIT_S = 170.0
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
# Iterations of the reference loop (``probe``): 60 to 110 ms on a 2.1 GHz
# Xeon, depending on what else the host runs.
PROBE_ITERATIONS = 200_000
# Times are reported as on a host on which the reference loop takes this long.
PROBE_REFERENCE_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    # warm: every pass starts from the committed prefilled cache in
    # fixtures/; cold: every command starts from its own empty cache file
    warm: bool
    # what the traced run should confirm: (claim, test of the per-layer
    # self times and the per-layer metrics)
    purpose: tuple[tuple[str, Callable[[dict, dict], bool]], ...] = ()


def _largest(layers: dict, count: int) -> set:
    return set(sorted(layers, key=layers.get, reverse=True)[:count])


def _no_indicator_work(layers: dict, metrics: dict) -> bool:
    return metrics["indicator.types_computed"] == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold-indicator",
            (("moment", "cyc2", "-d", "4"), ("moment", "N(123)", "-d", "1")),
            warm=False,
            purpose=(
                (
                    "indicator + contraction is the largest share",
                    lambda layers, m: layers["indicator"] + layers["contraction"]
                    >= max(v for k, v in layers.items() if k not in ("indicator", "contraction")),
                ),
            ),
        ),
        Workload(
            "warm-expansion",
            (("moment", "exc", "-d", "4"), ("limit", "exc", "--variance")),
            warm=True,
            purpose=(("no indicator polynomial is computed", _no_indicator_work),),
        ),
        Workload(
            "verify-grid",
            (
                ("verify", "exc", "--nmax", "4", "-d", "3"),
                ("verify", "exc", "--nmax", "7", "-d", "2"),
            ),
            warm=True,
            purpose=(
                ("no indicator polynomial is computed", _no_indicator_work),
                (
                    "translates and oracle are the two largest layers",
                    lambda layers, m: _largest(layers, 2) == {"translates", "oracle"},
                ),
            ),
        ),
        Workload(
            "weighted-sums",
            (
                ("moment", "biv(1;A={};B={};f=x1^6;g=1)", "-d", "2"),
                ("moment", "biv(21;A={1};B={};f=x1^2;g=x2^2)", "-d", "1"),
            ),
            warm=True,
            purpose=(
                ("no indicator polynomial is computed", _no_indicator_work),
                ("sums is the largest layer", lambda layers, m: _largest(layers, 1) == {"sums"}),
            ),
        ),
    )
}


class BenchmarkError(Exception):
    """The benchmark cannot run here, e.g. the program or a fixture is
    missing."""


@dataclass
class CommandRun:
    argv: tuple[str, ...]
    exit_code: int
    stdout: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool = False
    # the reference loop around the command: mean of before and after
    probe_wall_s: float = 0.0
    probe_cpu_s: float = 0.0


def command_key(argv) -> str:
    return " ".join(argv)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fixture_path(workload: Workload) -> Path:
    return FIXTURES / f"{workload.name}.json"


def fresh_cache(workload: Workload, tag: str) -> Path:
    """The workload's starting cache file: a byte-identical copy of the
    fixture for a warm workload, an empty file for a cold one."""
    path = OUT / "cache" / f"{workload.name}-{tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not workload.warm:
        path.write_bytes(b"")
        return path
    fixture = fixture_path(workload)
    if not fixture.is_file():
        raise BenchmarkError(f"missing cache fixture {fixture}")
    shutil.copyfile(fixture, path)
    if digest(path) != digest(fixture):
        raise BenchmarkError(f"{path} differs from {fixture} after the copy")
    return path


# Starts one command and reports its wall time and rusage on the file
# descriptor in argv[1].  Linux carries the high-water RSS of the process that
# starts a command through fork and exec into the command's max-RSS, so the
# commands are started from this small interpreter, not from the benchmark's
# own, which is larger than a cycstat process.
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
os.write(int(sys.argv[1]), f"{wall} {usage.ru_utime + usage.ru_stime} {usage.ru_maxrss}".encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


def wait_for_group(pgid: int, limit_s: float = 5.0) -> None:
    """Wait, at most ``limit_s``, until no process of the group is left: a
    killed launcher leaves its command to be reaped by init."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_command(argv, cache: Path, deadline: float, spans: Path | None = None,
                pass_id: int = 0) -> CommandRun:
    """Run one CLI command in a fresh interpreter; killed at ``deadline``
    (time.monotonic).  With ``spans`` it runs under the tracer."""
    if spans is None:
        cmd = [sys.executable, "-m", "cycstat.cli"]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), str(pass_id)]
    cmd += [*argv, "--cache", str(cache)]
    OUT.mkdir(parents=True, exist_ok=True)
    report, report_w = os.pipe()
    with open(OUT / "stderr.log", "ab") as err, open(report, "rb") as report:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", LAUNCHER, str(report_w), *cmd],
                stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT,
                pass_fds=(report_w,), start_new_session=True)
        finally:
            os.close(report_w)

        killed = []

        def kill():
            # the launcher's session holds the command too
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                killed.append(True)

        killer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            reported = report.read().split()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            # set before cancelling, so a late timer cannot signal a reused
            # process group
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
            killer.join()
            if killed:
                wait_for_group(proc.pid)
        if len(reported) == 3:  # the launcher saw the command end
            wall, cpu, rss_kib = float(reported[0]), float(reported[1]), int(reported[2])
        else:
            wall = time.perf_counter() - start
            cpu, rss_kib = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    return CommandRun(
        argv=tuple(argv),
        exit_code=proc.returncode,
        stdout=stdout.decode("utf-8", "replace"),
        wall_s=wall,
        cpu_s=cpu,
        rss_mb=rss_kib / 1024,  # ru_maxrss is in KiB on Linux
    )


def probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python loop of the kind of work
    cycstat does: small-integer arithmetic, tuples and dict updates."""
    wall, cpu = time.perf_counter(), time.process_time()
    table: dict = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = (i % 997, i % 13)
        total += i * i % 7
        table[key] = table.get(key, 0) + total
    return time.perf_counter() - wall, time.process_time() - cpu


class Probes:
    """The reference loop timed between measurements, so that each loop
    serves the measurement before it and the one after it."""

    def __init__(self):
        self.last = probe()

    def around(self, measure: Callable):
        """``measure()``, and the mean wall and CPU seconds of the
        reference loops right before and right after it."""
        before = self.last
        result = measure()
        self.last = probe()
        return result, (before[0] + self.last[0]) / 2, (before[1] + self.last[1]) / 2


def matches_golden(run: CommandRun, golden: dict) -> bool:
    want = golden.get(command_key(run.argv))
    return want is not None and (run.exit_code, run.stdout) == (want["exit_code"], want["stdout"])


def run_pass(workload: Workload, pass_id: int, order, golden: dict, deadline: float,
             traced: bool = False, probes: Probes | None = None) -> dict:
    """Run every command of the workload once, in ``order``, and check each
    output; stops early only at the deadline."""
    probes = probes or Probes()
    shared = fresh_cache(workload, "pass") if workload.warm else None
    runs: list[CommandRun] = []
    span_files: list[Path] = []
    for i in order:
        argv = workload.commands[i]
        cache = shared or fresh_cache(workload, f"cmd{i}")
        spans = None
        if traced:
            spans = OUT / "spans" / f"{workload.name}-pass{pass_id}-cmd{i}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.unlink(missing_ok=True)
            span_files.append(spans)
        run, run.probe_wall_s, run.probe_cpu_s = probes.around(
            lambda: run_command(argv, cache, deadline, spans, pass_id))
        run.ok = matches_golden(run, golden)
        runs.append(run)
        if time.monotonic() >= deadline:
            break
    return {
        "pass_id": pass_id,
        "traced": traced,
        "wall_s": sum(r.wall_s for r in runs),
        "cpu_s": sum(r.cpu_s for r in runs),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "attempted": len(runs),
        "failed": sum(not r.ok for r in runs),
        "complete": len(runs) == len(workload.commands),
        "spans": [str(p) for p in span_files],
        "commands": [
            {"argv": list(r.argv), "exit_code": r.exit_code, "ok": r.ok,
             "wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
             "probe_wall_s": r.probe_wall_s, "probe_cpu_s": r.probe_cpu_s}
            for r in runs
        ],
    }


SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import cycstat.cli
from cycstat import indicator
indicator.configure_disk_cache(sys.argv[1])
print(time.perf_counter() - start)
"""


def measure_setup(workload: Workload, deadline: float, probes: Probes) -> dict:
    """Seconds for a fresh interpreter to import cycstat.cli and load the
    workload's starting cache file, and the reference loop's wall seconds
    around it."""
    cache = fresh_cache(workload, "setup")
    done, probe_wall_s, _ = probes.around(lambda: subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(cache)],
        env=ENV, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    ))
    return {"seconds": float(done.stdout), "probe_wall_s": probe_wall_s}


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """A time measured next to a reference loop that took ``probe_s``, as it
    would read on a host on which the loop takes ``PROBE_REFERENCE_S``.

    The host this benchmark was written on slows every process by up to 2x
    in phases that last from seconds to minutes, so a run of half a minute
    can sit inside one: the median seconds of a run, and even the fastest,
    moved by 20 to 30% from run to run, and set-up by up to a quarter
    between sets of runs.  The reference loop, timed in this process right
    before and after each measurement, slows with the host, and the times
    taken relative to it moved by 4 to 6%."""
    return seconds * PROBE_REFERENCE_S / probe_s


def reference_pass(passes: list[dict], kind: str) -> float:
    """A pass's ``kind`` (``wall`` or ``cpu``) seconds at the reference
    speed: each command's median over the passes, summed over the
    commands."""
    times: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for c in p["commands"]:
            times[command_key(c["argv"])].append(
                at_reference_speed(c[f"{kind}_s"], c[f"probe_{kind}_s"]))
    return sum(statistics.median(t) for t in times.values())


def end_to_end_metrics(passes: list[dict], setups: list[dict]) -> dict:
    setup = statistics.median(at_reference_speed(s["seconds"], s["probe_wall_s"])
                              for s in setups)
    return {
        "wall_ref_s": {"value": reference_pass(passes, "wall"), "unit": "s"},
        "cpu_ref_s": {"value": reference_pass(passes, "cpu"), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
    }


def read_spans(paths) -> tuple[dict, dict, dict, Counter]:
    """Self time, total time and call count by span name, and the summed
    counters, over the span files of one traced pass.  A span's self time
    is its duration minus that of its direct children."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counters: Counter = Counter()
    for path in paths:
        if not Path(path).is_file():  # the command died before writing it
            continue
        with open(path) as fh:
            data = json.load(fh)
        names, rows = data["names"], data["spans"]
        covered = [0.0] * len(rows)
        for _, start, end, parent, _, _ in rows:
            if parent >= 0:
                covered[parent] += end - start
        for (name_id, start, end, _, _, _), child in zip(rows, covered):
            name = names[name_id]
            self_s[name] += end - start - child
            total_s[name] += end - start
            calls[name] += 1
        counters.update(data["counters"])
    return self_s, total_s, calls, counters


def per_layer_metrics(self_s, total_s, calls, counters, overhead_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from the spans of one traced
    pass; values that would divide by zero are reported as 0."""
    moment_s = self_s["indicator.moment"]
    contract_s = self_s["contraction.contract"]
    partitions = counters["setpartitions.partitions"]
    lookups = calls["indicator.moment"]
    computed = counters["indicator.types_computed"]
    values = {
        "indicator.moment_s": (moment_s, "s"),
        "indicator.calls": (lookups, "count"),
        "indicator.types_computed": (computed, "count"),
        "indicator.hit_ratio": ((lookups - computed) / lookups if lookups else 0.0, "ratio"),
        "indicator.cache_load_s": (total_s["indicator.cache_load"], "s"),
        "indicator.cache_entries_loaded": (counters["indicator.cache_entries_loaded"], "count"),
        "setpartitions.partitions": (partitions, "count"),
        "setpartitions.us_per_partition": (
            1e6 * (moment_s + contract_s) / partitions if partitions else 0.0, "us"),
        "contraction.contract_s": (contract_s, "s"),
        "contraction.calls": (calls["contraction.contract"], "count"),
        "translates.expand_s": (self_s["translates.expand"], "s"),
        "translates.expand_calls": (calls["translates.expand"], "count"),
        "translates.products": (counters["translates.products"], "count"),
        "translates.pre_merge": (counters["translates.pre_merge"], "count"),
        "translates.post_merge": (counters["translates.post_merge"], "count"),
        "translates.cycle_path_types": (counters["translates.cycle_path_types"], "count"),
        "translates.moment_at_s": (self_s["translates.moment_at"], "s"),
        "expectation.aggregate_s": (self_s["expectation.aggregate"], "s"),
        "expectation.normalize_s": (self_s["expectation.normalize"], "s"),
        "expectation.normalize_calls": (calls["expectation.normalize"], "count"),
        "expectation.certificates": (counters["expectation.certificates"], "count"),
        "poly.divide_s": (self_s["poly.divide"], "s"),
        "poly.divide_calls": (calls["poly.divide"], "count"),
        "poly.falling_s": (self_s["poly.falling"], "s"),
        "poly.falling_calls": (calls["poly.falling"], "count"),
        "sums.constrained_sum_s": (self_s["sums.constrained_sum"], "s"),
        "sums.calls": (calls["sums.constrained_sum"], "count"),
        "sums.misses": (counters["sums.misses"], "count"),
        "oracle.class_moment_s": (self_s["oracle.class_moment"], "s"),
        "oracle.calls": (calls["oracle.class_moment"], "count"),
        "oracle.permutations": (counters["oracle.permutations"], "count"),
        "dsl.parse_s": (self_s["dsl.parse"], "s"),
        "dsl.translates_out": (counters["dsl.translates_out"], "count"),
        "patterns.compile_s": (self_s["patterns.compile"], "s"),
        "patterns.compile_calls": (calls["patterns.compile"], "count"),
        "asymptotics.limit_s": (self_s["asymptotics.limit"], "s"),
        "cli.total_s": (total_s["cli.main"], "s"),
        "cli.self_s": (self_s["cli.main"], "s"),
        **{f"{layer}.errors": (counters[f"{layer}.errors"], "count") for layer in LAYERS},
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def layer_self_times(self_s: dict) -> dict:
    layers = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        if name != HOOK_SPAN:
            layers[name.split(".")[0]] += seconds
    return layers


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    source = hashlib.sha256()
    for path in sorted((SRC / "cycstat").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "cycstat" / "cli.py").is_file():
        raise BenchmarkError(f"no cycstat source under {SRC}")
    if not GOLDEN.is_file():
        raise BenchmarkError(f"missing golden record {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(seed)

    def order():
        ids = list(range(len(workload.commands)))
        rng.shuffle(ids)
        return ids

    start = time.monotonic()
    setups: list[dict] = []
    probes = Probes()
    if not trace:
        # compiles the bytecode of a fresh checkout, so it is not counted
        measure_setup(workload, deadline, probes)
    passes = []
    while True:
        begun = time.monotonic()
        passes.append(run_pass(workload, len(passes), order(), golden, deadline, probes=probes))
        if not trace:
            # once after every pass, which spreads the samples over the run
            setups.append(measure_setup(workload, deadline, probes))
        now = time.monotonic()
        if trace or not passes[-1]["complete"] or now - start + (now - begun) > seconds:
            break
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        traced = run_pass(workload, len(passes), order(), golden, deadline, traced=True,
                          probes=probes)
        passes.append(traced)
        self_s, total_s, calls, counters = read_spans(traced["spans"])
        overhead = traced["wall_s"] - statistics.median(p["wall_s"] for p in passes[:-1])
        metrics = per_layer_metrics(self_s, total_s, calls, counters, overhead)
        layers = layer_self_times(self_s)
        values = {k: v["value"] for k, v in metrics.items()}
        record["layer_self_s"] = layers
        record["purpose"] = {claim: bool(test(layers, values)) for claim, test in workload.purpose}
    else:
        metrics = end_to_end_metrics(passes, setups)
        record["setup_samples"] = setups
        record["median_pass"] = {key: statistics.median(p[key] for p in passes)
                                 for key in ("wall_s", "cpu_s")}
        record["median_probe_wall_s"] = statistics.median(
            c["probe_wall_s"] for p in passes for c in p["commands"])
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record |= {
        "environment": env,
        "samples": {"passes": sum(not p["traced"] for p in passes), "setup": len(setups)},
        "passes": passes,
        "result": {"correct": failed == 0 and all(p["complete"] for p in passes),
                   "attempted": attempted, "failed": failed, "metrics": metrics},
    }
    return record


def summary_lines(record: dict) -> list[str]:
    lines = [f"environment {json.dumps(record['environment'])}"]
    for p in record["passes"]:
        kind = "traced pass" if p["traced"] else "pass"
        lines.append(
            f"{kind} {p['pass_id']}: wall {p['wall_s']:.2f} s, cpu {p['cpu_s']:.2f} s, "
            f"peak rss {p['peak_rss_mb']:.1f} MB, {p['attempted'] - p['failed']}/"
            f"{p['attempted']} outputs match"
        )
    if record["samples"]["setup"]:
        median = record["median_pass"]
        lines.append(f"median pass: wall {median['wall_s']:.2f} s, cpu {median['cpu_s']:.2f} s, "
                     f"reference loop {record['median_probe_wall_s'] * 1e3:.1f} ms; "
                     f"{record['samples']['passes']} passes; "
                     f"setup: median of {record['samples']['setup']} samples")
    if "layer_self_s" in record:
        layers = record["layer_self_s"]
        total = sum(layers.values()) or 1.0
        for layer in sorted(layers, key=layers.get, reverse=True):
            lines.append(f"layer {layer}: {layers[layer]:.3f} s self ({layers[layer] / total:.1%})")
        for claim, ok in record["purpose"].items():
            lines.append(f"purpose {'confirmed' if ok else 'NOT confirmed'}: {claim}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    for line in summary_lines(record):
        print(line)
    print(f"record written to {path.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
