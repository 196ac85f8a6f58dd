"""Run one anisolap CLI job in this fresh interpreter and report on it.

Usage: python3 perfbench/job.py RESULT_JSON TRACE(0|1) [CLI ARGS...]

Times the import of ``anisolap`` and ``anisolap.cli`` (the set-up every CLI
user pays), then ``anisolap.cli.main(CLI ARGS)``, and writes both with the
process's peak resident memory to RESULT_JSON.  A fixed numpy kernel is timed
right after the import and again after the job, so that run.py can scale both
times to a nominal machine speed.  With TRACE 1 the layers are wrapped first
(see tracing.py) and the per-layer metrics are added.  With no CLI ARGS only
the import is timed.  Only the standard library is imported before the
import is timed.
"""

import json
import resource
import statistics
import sys
import time

PROBE_REPEATS = 5


def probe(np) -> float:
    """Median time of a fixed kernel of small numpy operations, about 16 ms
    per repeat.  Its 80 kB temporaries stay below the allocator's mmap
    threshold, so its time does not depend on what the process allocated
    before."""
    a = np.arange(10_000, dtype=float) / 10_000
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(600):
            float(np.sqrt(a * a + 1.0).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    result_path, traced, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import anisolap
    import anisolap.cli

    setup_s = time.perf_counter() - start
    import numpy

    out = {"setup_s": setup_s, "probe_s": [probe(numpy)], "module": anisolap.__file__}
    if cli_args:
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        out["rc"] = anisolap.cli.main(cli_args)
        out["wall_s"] = time.perf_counter() - start
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["probe_s"].append(probe(numpy))
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["calls"] = tracer.call_counts()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
