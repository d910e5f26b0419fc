"""Per-layer tracing of one cycstat CLI command, from outside the program.

The tracer replaces module attributes of ``cycstat`` where the calling module
binds them (for example ``cycstat.translates.constrained_sum``), so the
program itself is not edited.  Each wrapped call either records a span
(name, start, end, parent span, pass id) or bumps a counter.  Spans stay in
memory and are written out once, when the command ends.

Run as a script, with ``src`` on PYTHONPATH, it traces one command the way
``python -m cycstat.cli`` would run it:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json PASS_ID moment exc -d 2

The command's stdout and exit code are those of the CLI; the spans and
counters go to SPANS.json.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Layers whose wrapped calls are counted in ``<layer>.errors``.
LAYERS = (
    "cli", "dsl", "patterns", "translates", "indicator", "setpartitions",
    "contraction", "expectation", "poly", "sums", "oracle", "asymptotics",
)

# (module, class or None, attribute, span name).  A span's layer is the part
# of its name before the dot.
SPANS = (
    ("cycstat.cli", None, "main", "cli.main"),
    ("cycstat.cli", None, "parse_statistic", "dsl.parse"),
    ("cycstat.dsl", None, "compile_bivincular", "patterns.compile"),
    ("cycstat.patterns", None, "compile_bivincular", "patterns.compile"),
    ("cycstat.indicator", None, "configure_disk_cache", "indicator.cache_load"),
    ("cycstat.translates", None, "indicator_moment", "indicator.moment"),
    ("cycstat.indicator", None, "indicator_moment", "indicator.moment"),
    ("cycstat.indicator", None, "contract", "contraction.contract"),
    ("cycstat.translates", "RegularStatistic", "__pow__", "translates.expand"),
    ("cycstat.translates", "RegularStatistic", "moment_at", "translates.moment_at"),
    ("cycstat.translates", "RegularStatistic", "expectation", "expectation.aggregate"),
    ("cycstat.expectation", "RationalExpectation", "normalized", "expectation.normalize"),
    ("cycstat.expectation", None, "divide_exact_in_n", "poly.divide"),
    ("cycstat.expectation", None, "falling_factorial_poly", "poly.falling"),
    ("cycstat.translates", None, "constrained_sum", "sums.constrained_sum"),
    ("cycstat.cli", None, "class_moment", "oracle.class_moment"),
    ("cycstat.cli", None, "variance_limit", "asymptotics.limit"),
    ("cycstat.cli", None, "alpha_limit", "asymptotics.limit"),
)

# Wrapped calls that only bump a counter: (module, class, attribute, counter).
COUNTS = (
    ("cycstat.translates", None, "translate_product", "translates.products"),
    ("cycstat.expectation", "RationalExpectation", "clear_falling", "expectation.certificates"),
)

# Hooks of spans run after a successful call; they are timed as "trace.hook"
# spans so that their cost is excluded from the self time of the span around
# them.  Hooks of counters are cheap and untimed.
HOOK_SPAN = "trace.hook"


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    """Wraps the module attributes named in SPANS and COUNTS; ``restore``
    puts every original back."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self._type_of_key: dict = {}
        self._sums_misses0 = 0
        self._sums_cache_info = None

    # -- installation -------------------------------------------------

    def install(self) -> None:
        hooks = {
            "translates.expand": self._after_expand,
            "dsl.parse": self._after_parse,
            "oracle.class_moment": self._after_class_moment,
            "indicator.cache_load": self._after_cache_load,
            "translates.products": self._after_product,
        }
        for module, cls, attr, name in SPANS:
            self._patch(module, cls, attr, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        for module, cls, attr, name in COUNTS:
            self._patch(module, cls, attr, lambda fn, n=name: self._count(n, fn, hooks.get(n)))
        self._patch("cycstat.indicator", None, "set_partitions", self._count_partitions)
        # constrained_sum is an lru_cache; its misses are read as a delta
        self._sums_cache_info = getattr(
            _owner("cycstat.sums", None).constrained_sum, "cache_info", None
        )
        if self._sums_cache_info is not None:
            self._sums_misses0 = self._sums_cache_info().misses

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        if self._sums_cache_info is not None:
            self.counters["sums.misses"] = self._sums_cache_info().misses - self._sums_misses0

    def _patch(self, module, cls, attr, make_wrapper) -> None:
        owner = _owner(module, cls)
        # read through __dict__ so a class gives its own plain function,
        # which is what setattr puts back
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    # -- wrappers -----------------------------------------------------

    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, parent, error) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.pass_id, error)
        if error:
            self.counters[name.split(".")[0] + ".errors"] += 1

    def _span(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, name, start, parent, 1)
                raise
            self._close(idx, name, start, parent, 0)
            if hook is not None:
                hidx, hparent = self._open(HOOK_SPAN)
                hstart = time.perf_counter()
                hook(result, args)
                self._close(hidx, HOOK_SPAN, hstart, hparent, 0)
            return result
        return wrapper

    def _count(self, name, fn, hook=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[layer + ".errors"] += 1
                raise
            if hook is not None:
                hook(result, args)
            return result
        return wrapper

    def _count_partitions(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters["indicator.types_computed"] += 1
            try:
                for item in fn(*args, **kwargs):
                    self.counters["setpartitions.partitions"] += 1
                    yield item
            except Exception:
                self.counters["setpartitions.errors"] += 1
                raise
        return wrapper

    # -- hooks --------------------------------------------------------

    def _after_expand(self, result, args) -> None:
        self.counters["translates.post_merge"] += len(result.translates)
        for t in result.translates:
            key = (t.packed.positions, t.packed.values)
            if key not in self._type_of_key:
                self._type_of_key[key] = t.packed.cycle_path_type()

    def _after_product(self, result, args) -> None:
        # translate_product merges its own result; the expansion then merges
        # across products, which post_merge counts
        self.counters["translates.pre_merge"] += len(result.translates)

    def _after_parse(self, result, args) -> None:
        self.counters["dsl.translates_out"] += len(result.translates)

    def _after_class_moment(self, result, args) -> None:
        from cycstat.oracle import class_size

        self.counters["oracle.permutations"] += class_size(args[1])

    def _after_cache_load(self, result, args) -> None:
        path = args[0]
        if path is None:
            return
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return
        if isinstance(data, dict):
            self.counters["indicator.cache_entries_loaded"] += len(data)

    # -- output -------------------------------------------------------

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, pass_id, error in self.spans:
            rows.append([names.setdefault(name, len(names)), start, end, parent, pass_id, error])
        counters = dict(self.counters)
        counters["translates.cycle_path_types"] = len(set(self._type_of_key.values()))
        with open(path, "w") as fh:
            json.dump({"names": list(names), "spans": rows, "counters": counters}, fh)


def main(argv: list[str]) -> int:
    spans_path, pass_id, cli_args = argv[0], int(argv[1]), argv[2:]
    import cycstat.cli

    tracer = Tracer(pass_id)
    tracer.install()
    try:
        try:
            code = cycstat.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
    finally:
        tracer.restore()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
