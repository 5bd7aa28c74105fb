"""Run one ctmdesign CLI command and record what the benchmark needs.

Usage:
    python3 launch.py --src SRC --stats STATS.json [--trace] [--probe] -- CLI ARGS...

The command runs in this process, exactly as ``ctmdesign CLI ARGS``
would, from the package sources under SRC.  STATS.json receives the
monotonic time at which the first replicate started, the import time
of ``ctmdesign.cli``, the peak resident memory of this process and,
with ``--trace``, the span table of ``tracer.py``.  With ``--probe`` the
process ends as soon as the first replicate starts: a set-up probe.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _peak_rss_kb():
    """VmHWM of this process: peak resident memory since exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    src = opts[opts.index("--src") + 1]
    stats_path = opts[opts.index("--stats") + 1]
    trace = "--trace" in opts
    probe = "--probe" in opts
    sys.path.insert(0, os.path.abspath(src))

    stats = {"first_replicate": None}

    def write_stats():
        stats["peak_rss_kb"] = _peak_rss_kb()
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)

    t0 = time.perf_counter()
    from ctmdesign import cli, config
    stats["import_ms"] = (time.perf_counter() - t0) * 1e3

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    # one-shot hook: stamp the first replicate, then step out of the way
    run_replicate = config.Scenario.run_replicate

    def first_replicate(self, *args, **kwargs):
        stats["first_replicate"] = time.monotonic()
        config.Scenario.run_replicate = run_replicate
        if probe:
            write_stats()
            os._exit(0)
        return run_replicate(self, *args, **kwargs)

    config.Scenario.run_replicate = first_replicate
    sys.argv = ["ctmdesign", *cli_args]
    code = cli.main(cli_args)
    if tracer is not None:
        stats["trace"] = tracer.report()
    write_stats()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
