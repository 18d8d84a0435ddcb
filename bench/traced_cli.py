"""Run one `voxrestore` subcommand with the layer wrappers installed.

    python3 bench/traced_cli.py TRACE_JSON SUBCOMMAND [ARGS...]

Writes the process's spans and counters to TRACE_JSON when the command
ends and exits with the command's status.
"""

import json
import sys

from spans import Tracer


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from voxrestore import cli
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
