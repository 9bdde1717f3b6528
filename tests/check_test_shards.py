#!/usr/bin/env python3
"""Checks that the shards of a gtest binary ran its whole case list.

Usage: check_test_shards.py <gtest-binary> <shard-json-dir> <shards>

Each shard ran with GTEST_TOTAL_SHARDS=<shards> and GTEST_SHARD_INDEX=i
and wrote the cases it ran to <shard-json-dir>/<i>.json
(--gtest_output=json). Together they must be the binary's unsharded
--gtest_list_tests, each case in exactly one shard.
"""
import collections
import json
import os
import subprocess
import sys


def listed_cases(binary):
    env = {k: v for k, v in os.environ.items() if not k.startswith("GTEST_")}
    out = subprocess.run([binary, "--gtest_list_tests"], env=env, check=True,
                         capture_output=True, text=True).stdout
    cases, suite = [], ""
    for line in out.splitlines():
        if not line.startswith(" "):
            suite = line.split("#")[0].strip()
        elif line.strip():
            cases.append(suite + line.split("#")[0].strip())
    return cases


def shard_cases(path):
    with open(path) as f:
        report = json.load(f)
    return [suite["name"] + "." + case["name"]
            for suite in report["testsuites"] for case in suite["testsuite"]]


def main():
    binary, shard_dir, shards = sys.argv[1], sys.argv[2], int(sys.argv[3])
    listed = listed_cases(binary)
    ran = collections.Counter()
    for index in range(shards):
        cases = shard_cases(os.path.join(shard_dir, "%d.json" % index))
        if not cases:
            sys.exit("shard %d ran no case" % index)
        ran.update(cases)
    repeated = sorted(case for case, count in ran.items() if count > 1)
    missing = sorted(set(listed) - set(ran))
    extra = sorted(set(ran) - set(listed))
    if repeated or missing or extra:
        sys.exit("shards do not partition the suite: repeated %s, missing %s, "
                 "extra %s" % (repeated[:5], missing[:5], extra[:5]))
    print("%d shards ran all %d cases, each once" % (shards, len(listed)))


if __name__ == "__main__":
    main()
