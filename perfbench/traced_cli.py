"""Run the ellseries CLI in this process with spans around its public functions.

    python traced_cli.py SPANS_FD OP_ID ARG...

ARG... is the argv `python -m ellseries` would get.  SPANS_FD is an
inherited file descriptor, the write end of a pipe the spans go to.  The
exit code and the output are the CLI's own; an uncaught exception still
ends the process with a traceback and exit code 1, after the spans are
written.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_fd, op_id, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    cli = tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_fd, op_id)


if __name__ == "__main__":
    sys.exit(main())
