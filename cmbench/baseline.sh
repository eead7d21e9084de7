#!/usr/bin/env bash
# Runs workloads once per seed with --trace 0 and keeps each run's
# standard output as <outdir>/<workload>.<seed>.out, the layout
# cmbench/compare reads. Run from the repository root:
#
#   bash cmbench/baseline.sh <outdir> <seconds> <workload[,workload...]> <seed>...
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: $0 <outdir> <seconds> <workload[,workload...]> <seed>..." >&2
	exit 2
fi
out=$1 seconds=$2 workloads=$3
shift 3
mkdir -p "$out"
IFS=, read -r -a ws <<<"$workloads"
for w in "${ws[@]}"; do
	for s in "$@"; do
		bash cmbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$w.$s.out"
		tail -n 1 "$out/$w.$s.out" | cut -c1-160
	done
done
