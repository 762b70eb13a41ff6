"""One benchmark operation: a single `iwasawa_kernel.cli.main` call.

Usage: child.py SRC_DIR MEMORY_CAP_MB TRACE CLI ARGS...

The child caps its own address space before anything else, imports the
CLI, runs one command with stdout captured, and prints one JSON line with
the report and its measurements.  During an untraced call it measures the
machine's speed (speed.py), and the parent calibrates the set-up time and
the call time by it.  With TRACE=1 the package's public functions are
wrapped instead (see spans.py) and the spans come back in the JSON.
"""

import resource
import sys
import time

_CLOCK = time.CLOCK_MONOTONIC  # system-wide, so comparable with the parent


def _peak_rss_kb() -> int:
    """This process's peak RSS.

    ru_maxrss survives exec on Linux, so a child would report its parent's
    peak if that were larger; VmHWM belongs to the process's own memory.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    src, cap_mb, trace, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    cap = cap_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    # Like an installed package, import from cached bytecode: the first
    # child of a fresh checkout writes it, whatever the environment says.
    sys.dont_write_bytecode = False
    sys.path.insert(0, src)

    from iwasawa_kernel import cli

    imported = time.clock_gettime(_CLOCK)
    rss_import = _peak_rss_kb()
    import speed

    # the probes' buffers stay resident throughout; they are not the program's
    probe_kb = _peak_rss_kb() - rss_import

    import contextlib
    import io
    import json

    out = {"imported": imported, "rss_import_kb": rss_import}
    tracer = sampler = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        sampler = speed.Sampler()
        sampler.start()
    buf = io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        call_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        peak_kb = _peak_rss_kb() - probe_kb
        if sampler is not None:
            sampler.stop()
        if tracer is not None:
            tracer.restore()
    out.update(
        rc=rc,
        call_s=call_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_kb=peak_kb,
        report=buf.getvalue(),
    )
    if sampler is not None:
        out.update(call_speed=speed.index(sampler.samples), probe_s=sampler.spent)
    if tracer is not None:
        out.update(spans=tracer.spans, counts=tracer.counts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
