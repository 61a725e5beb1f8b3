"""Run one socchange CLI command under the span tracer and dump its layer metrics.

    python3 perfbench/cli_traced.py METRICS_JSON <socchange arguments...>

Used by the traced cli_demo run in place of ``python -m socchange.cli``; the
exit code is the command's own.
"""

import json
import sys
from pathlib import Path

import socchange.cli

import spans


def main() -> int:
    tracer = spans.Tracer()
    with tracer.installed():
        code = socchange.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.layer_metrics()))
    return code


if __name__ == "__main__":
    sys.exit(main())
