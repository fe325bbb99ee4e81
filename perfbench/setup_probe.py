"""Set-up time of a fresh interpreter: import the program, run the warm-up.

    python3 setup_probe.py SRC_DIR WARM_UP_JSON STDOUT_PATH

Prints one JSON line with the seconds from just before `import ambiq` to
the end of the warm-up, and the process's peak resident set in KiB. Only
the standard library is loaded before the clock starts.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from warmup import WarmUp, run_warm_up  # noqa: E402


def main() -> int:
    src, spec, stdout_path = sys.argv[1:4]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import ambiq.cli  # noqa: F401

    run_warm_up(WarmUp(**json.loads(spec)), stdout_path)
    seconds = time.perf_counter() - start
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"seconds": seconds, "maxrss_kb": maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
