#!/usr/bin/env bash
# Regenerates the stored reference digests with every execution tier
# switched off: snapshots through the workload options, fusion, compiled
# kernels, convergence and liveness pruning through the process-wide
# kill switches. Run from the repository root after changing a
# workload's sizes:
#
#   bash perfbench/mkref.sh study-grid single-bit-paper
set -euo pipefail
export MULTIFLIP_NOFUSE=1 MULTIFLIP_NOCOMPILE=1 MULTIFLIP_NOCONVERGE=1 MULTIFLIP_NOLIVENESS=1
for w in "$@"; do
	bash perfbench/run.sh --workload "$w" --write-reference
done
