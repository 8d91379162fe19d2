"""One cold set-up of the benchmark, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py              # set-up
    python3 perfbench/setup_probe.py --reference  # the reference import

numpy is imported before the clock starts. Set-up then times importing
aecomm, loading every fixture checkpoint and building the training
codebooks. The reference import times a fixed set of standard-library
modules that neither numpy nor aecomm loads, so no change to aecomm can
move it. Prints the seconds as JSON on stdout; run.py alternates the two
and scales set-up by the reference.
"""

import json
import sys
import time

import numpy  # noqa: F401  (outside the clock)

start = time.perf_counter()
if sys.argv[1:] == ["--reference"]:
    import argparse, csv, decimal, email.parser, fractions, http.client  # noqa: E401, F401
    import statistics, tarfile, unittest, xml.dom.minidom  # noqa: E401, F401
else:
    import workloads

    workloads.setup()
print(json.dumps({"seconds": time.perf_counter() - start}))
