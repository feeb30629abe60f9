"""Run one ``tpl`` command under the tracer and save its spans and counters.

    python3 bench/cli_child.py OUT.json <tpl arguments>

The traced counterpart of ``python -m tpl.cli <tpl arguments>``: same
stdout, stderr and exit code. ``OUT.json`` receives the spans, the exact
counters and the distinct-input keys, for the parent to merge.
"""

import json
import sys

from tracer import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import tpl.cli

    tracer = Tracer().install()
    try:
        return tpl.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "keys": {k: sorted(v) for k, v in tracer.keys.items()}}, fh)


if __name__ == "__main__":
    sys.exit(main())
