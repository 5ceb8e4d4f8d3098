#!/bin/sh
# Re-bless the CI performance baseline (bench/baseline.json).
#
# Run this when a change *intentionally* moves a gated row: a workload's
# output digest, modelled energy/IPC of a (workload, binary version)
# cell, the spill series, the VRP fixpoint visit/round counts, or a
# wall time.  The collection runs with exactly the flags CI's
# regression-diff step uses, so the blessed file and the gate always
# compare like with like (quick mode, micro benches skipped).  After
# blessing, the self-diff below must come back clean — digests and
# counters are deterministic — apart from a wall-time row that flaps on
# a loaded machine; anything else means collection itself is
# non-deterministic, which is a bug worth reporting, not blessing.
#
# Review `git diff bench/baseline.json` before committing: every moved
# row should be explained by the change you are blessing.  See
# TESTING.md ("Re-blessing the bench baseline").
set -eu
cd "$(dirname "$0")/.."

dune exec bench/main.exe -- \
  --quick --jobs 0 --skip-micro --json bench/baseline.json

echo "bless-baseline: verifying the fresh baseline self-diffs clean"
dune exec bench/main.exe -- \
  --quick --jobs 0 --skip-micro \
  --baseline bench/baseline.json

echo "bless-baseline: done — review 'git diff bench/baseline.json'"
