"""Run ``repro`` CLI arguments with layer spans recorded.

    python3 perfbench/serve_traced.py OUTDIR serve --http --port 0 ...

Installs the wrappers of ``layers.py`` in this process, then calls
``repro.cli.main`` with the remaining arguments.  Worker processes
forked by the pool inherit the wrappers; each starts with an empty
span list and writes ``OUTDIR/worker-<pid>.json`` when its job loop
ends.  This process writes ``OUTDIR/main.json`` at exit.
"""

from __future__ import annotations

import atexit
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    outdir, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    layers.install(recorder)
    recorder.watch_gc()

    def dump(name: str) -> None:
        path = os.path.join(outdir, f"{name}.json")
        with open(path, "w") as handle:
            json.dump({"spans": recorder.spans,
                       "gc_events": recorder.gc_events}, handle)

    import repro.service.pool as pool
    job_loop = pool._worker_loop

    def traced_job_loop(conn) -> None:
        recorder.reset_after_fork()
        try:
            job_loop(conn)
        finally:
            dump(f"worker-{os.getpid()}")

    pool._worker_loop = traced_job_loop
    atexit.register(dump, "main")
    from repro.cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
