"""One fresh-process set-up: import regencodes, then build a workload's code once.

    PYTHONPATH=src python3 bench/setup_probe.py layered-n14

Prints one JSON object: {"import_s": seconds, "build_s": seconds,
"extfield_s": seconds, "loop_s": seconds}. extfield_s is the part of the
build spent in extfield.extension_field, timed by a span around the
library's own call; loop_s is the calibration loop's time in this process.
run.py starts several probes and reports the median of import_s + build_s
as setup_s.
"""

import json
import sys
import time

start = time.perf_counter()
import regencodes.cli  # noqa: E402,F401  (the import is what is timed)

import_s = time.perf_counter() - start

from regencodes import extfield  # noqa: E402  (regencodes is loaded by now)

from calibrate import loop_seconds  # noqa: E402
from tracing import Instrument, Tracer, package_modules, span_wrapper  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

tracer = Tracer()
Instrument(package_modules()).patch(extfield, "extension_field",
                                    span_wrapper(tracer, "extfield.build"))
start = time.perf_counter()
WORKLOADS[sys.argv[1]].build()
build_s = time.perf_counter() - start
extfield_s = sum((sp.end - sp.start for sp in tracer.spans), 0.0)

print(json.dumps({"import_s": import_s, "build_s": build_s, "extfield_s": extfield_s,
                  "loop_s": loop_seconds()}))
