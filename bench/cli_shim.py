"""Run the ofnring CLI with the benchmark's span wrappers installed.

    python3 bench/cli_shim.py SPANS_JSON <ofnring arguments...>

Behaves like `python -m ofnring`: the same output and exit code, and an
uncaught exception prints its traceback and exits 1.  The import time and the
spans of this one request are written to SPANS_JSON before exiting.
"""
import json
import sys
import time
import traceback

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    from ofnring import cli
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    tracer.begin(0)
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        tracer.end()
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            d = {k: list(v) if k != "counters" else v for k, v in tracer.dump().items()}
            json.dump(dict(d, import_ns=import_ns), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
