#!/usr/bin/env python3
"""Run the benchmark's own tests: the Python arithmetic and format checks
(test_benchstats.py) and the C++ self-test of the benchmark program's
percentile, span and result-line code (src/selftest.cpp).

    python3 perfbench/selftest.py"""

import subprocess
import sys
import unittest

import run
import test_benchstats


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_benchstats)
    py_ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    env = run.pinned_env()
    run.build(env)
    cpp_rc = subprocess.run([str(run.BUILD / "perfbench_selftest")],
                            env=env).returncode
    sys.exit(0 if py_ok and cpp_rc == 0 else 1)


if __name__ == "__main__":
    main()
