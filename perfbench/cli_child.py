"""Child process of the ``cli_chain`` workload.

``python cli_child.py [--trace] <gapforge arguments>`` imports
``gapforge.cli`` and calls ``main(argv)``, which is what ``python -m
gapforge.cli <arguments>`` does, and leaves stdout and the exit code to
``main``.  Its own timings go to stderr as one JSON line: the import, the
``main`` call, the read and write halves of the op (``read_instance``
and ``canonical_bytes`` as bound in ``gapforge.cli``), and its own peak RSS.  With ``--trace`` it
installs the benchmark's span wrappers after the import and adds the spans.
"""

import sys
import time


def _timed(fn, totals, key):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - t0

    return wrapper


def main() -> int:
    argv = sys.argv[1:]
    tracer = None
    if argv[:1] == ["--trace"]:
        argv = argv[1:]
        import spans

        tracer = spans.Tracer()
    t0 = time.perf_counter()
    import gapforge.cli as cli

    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    totals = {"read_s": 0.0, "write_s": 0.0}
    cli.read_instance = _timed(cli.read_instance, totals, "read_s")
    cli.canonical_bytes = _timed(cli.canonical_bytes, totals, "write_s")
    t2 = time.perf_counter()
    try:
        if tracer is None:
            return cli.main(argv)
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        sys.stdout.flush()
        t3 = time.perf_counter()
        import json
        import resource

        report = {"import_s": t1 - t0, "main_s": t3 - t2, **totals,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            tracer.spans.append([len(tracer.spans), "cli.import", t0, t1, None, None, None])
            tracer.finish_op()
            report["trace"] = tracer.export()
        sys.stderr.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    sys.exit(main())
