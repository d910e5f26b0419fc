"""Record the benchmark's golden outputs and prefilled caches.

    python3 perfbench/record.py

Runs every workload command once, each cold command on its own empty cache
file and the commands of a warm workload on one shared cache file that
starts empty.  Writes the exit code and stdout of every command to
``golden.json`` and the shared cache of each warm workload, which then
holds every indicator polynomial the workload needs, to
``fixtures/<workload>.json``.  Run it only at a commit whose outputs are the
reference: the benchmark counts every later difference as a failed
operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import FIXTURES, GOLDEN, OUT, WORKLOADS, command_key, run_command


def main() -> int:
    golden = {}
    scratch = OUT / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    FIXTURES.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        shared = scratch / f"{workload.name}.json"
        shared.write_bytes(b"")
        for i, argv in enumerate(workload.commands):
            cache = shared
            if not workload.warm:
                cache = scratch / f"{workload.name}-cmd{i}.json"
                cache.write_bytes(b"")
            done = run_command(argv, cache, deadline=time.monotonic() + 3600)
            golden[command_key(argv)] = {
                "argv": list(argv), "exit_code": done.exit_code, "stdout": done.stdout,
            }
            print(f"{command_key(argv)}: exit {done.exit_code}, {done.wall_s:.1f} s", flush=True)
        if workload.warm:
            shutil.copyfile(shared, FIXTURES / f"{workload.name}.json")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
