"""One benchmark operation, run as a fresh process.

Usage: ``python3 child.py SPEC_JSON``.  The spec lists the CLI argvs to
run (none for a set-up probe), the source tree the CLI must come from,
and an optional span file.  The child imports ``yolof_assign.cli`` (the
set-up being measured), runs each command through ``cli.main``, and
prints one JSON line of CLOCK_MONOTONIC timestamps, which the parent
compares with its own spawn time.  Exit code: the first failing CLI
command's, or 70 when the harness itself is broken (wrong source tree, a
traced attribute gone missing).
"""

import sys
import time

import yolof_assign.cli as cli

t_imported = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the set-up timestamp on purpose)
import os  # noqa: E402

HARNESS_EXIT = 70


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"harness error: imported {cli.__file__}, expected a module "
              f"under {src}", file=sys.stderr)
        return HARNESS_EXIT
    tracer = None
    if spec.get("spans"):
        import tracer as tracing
        tracer = tracing.Tracer(op=spec["op"])
        try:
            tracer.install()
        except AttributeError as exc:
            print(f"harness error: {exc}", file=sys.stderr)
            return HARNESS_EXIT
    windows = []
    rc = 0
    for argv in spec["argvs"]:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        rc = cli.main(argv)
        windows.append((start, time.clock_gettime(time.CLOCK_MONOTONIC)))
        if rc != 0:
            break
    if tracer is not None and windows:
        tracer.dump(spec["spans"], windows[0][0], windows[-1][1])
    print(json.dumps({"t_imported": t_imported, "windows": windows}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
