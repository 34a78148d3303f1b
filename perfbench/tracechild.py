"""`python -m kzero ARGV...` with spans: the traced form of one cli_startup child.

    python tracechild.py SPANS OP_ID ARGV...

Installs the tracer, runs `kzero.cli.main(ARGV)` exactly as `kzero/__main__.py`
does, writes the spans to SPANS and exits with the command's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    from kzero.cli import main as kzero_main

    code = kzero_main(argv)
    tracer.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
