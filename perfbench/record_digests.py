#!/usr/bin/env python3
"""Record the reference digest of every suite call's report body into digests.json.

Run from the root of a checkout whose reports are the reference:

    python3 perfbench/record_digests.py

The benchmark compares every later run against these digests, so
re-record only when a change to a report body is intended.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402
from widthlab import cli  # noqa: E402


def main() -> int:
    digests = {}
    for table in (workloads.SUITE_CALLS, workloads.TINY_SUITE_CALLS):
        for calls in table.values():
            for argv, (code, stdout) in zip(calls, workloads.run_calls(cli.main, calls)):
                if code != 0:
                    print(f"{workloads.call_key(argv)}: exit {code}; nothing recorded", file=sys.stderr)
                    return 1
                digests[workloads.call_key(argv)] = workloads.body_digest(stdout)
                print(f"{workloads.call_key(argv)}: {digests[workloads.call_key(argv)]}")
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
