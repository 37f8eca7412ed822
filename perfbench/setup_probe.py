"""Set-up probe: run one workload's command in a fresh interpreter and stop it
at the first call of ``integrate``.

Usage: python3 setup_probe.py SRC_DIR STAMP_FILE CLI_ARG...

The process that calls ``integrate`` first (a sweep worker, for sweeps)
appends its ``time.perf_counter()`` to STAMP_FILE and stops the run. The
parent started its own perf_counter clock, which is the same monotonic clock
on Linux, just before starting this interpreter, so the difference covers
interpreter start-up, imports, config resolution and initial-state
generation.
"""
import os
import sys
import time


class FirstIntegrate(Exception):
    """Raised at the first integrate call to end the run there."""


def main() -> int:
    src, stamp_file, *cli_args = sys.argv[1:]
    sys.path.insert(0, src)
    import framesync.cli
    import framesync.integrator
    import framesync.scenarios

    def first_integrate(*args, **kwargs):
        fd = os.open(stamp_file, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{time.perf_counter()!r}\n".encode())
        finally:
            os.close(fd)
        raise FirstIntegrate

    for module in (framesync.scenarios, framesync.integrator):
        if hasattr(module, "integrate"):
            module.integrate = first_integrate
    try:
        framesync.cli.main(cli_args)
    except FirstIntegrate:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
