#!/usr/bin/env bash
# Records the byte-identity trace set: the sim, nemesis and Byzantine
# traces that a change which must not alter any execution (a refactor or
# optimisation of the simulator, the shim or the harness) has to reproduce
# byte for byte.
#
# Usage: tools/identity_traces.sh <build-dir> <out-dir>
#
# <build-dir> must have chc_record, chc_nemesis and chc_byz built:
#   cmake --build <build-dir> --target chc_record chc_nemesis_tool chc_byz
#
# To compare two builds (same build type on both sides), record the set
# from each and then check both that the files match and that every trace
# passes the checker and replays:
#   tools/identity_traces.sh before-build before
#   tools/identity_traces.sh after-build after
#   diff -r before after
#   after-build/tools/chc_check --replay after/*.jsonl
#
# A change that may move geometry in its last bits but must keep every
# schedule compares with the checker instead of diff (same line count,
# every line equal apart from snapshot verts; prints the largest d_H):
#   after-build/tools/chc_check --against before after/*.jsonl
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
TOOLS="$1/tools"
OUT="$2"
mkdir -p "$OUT"

for preset in default crash lossy; do
  for seed in 7 11 13; do
    "$TOOLS/chc_record" --preset "$preset" --seed "$seed" \
      --out "$OUT/record_${preset}_${seed}.jsonl"
  done
done
for seed in 7 11; do
  "$TOOLS/chc_record" --preset default --d 3 --n 6 --seed "$seed" \
    --out "$OUT/record_default_d3_n6_${seed}.jsonl"
done
"$TOOLS/chc_record" --fuzz 12 --seed 9000 --out-dir "$OUT"
"$TOOLS/chc_nemesis" --all --seed 7 --out-dir "$OUT"
"$TOOLS/chc_byz" --sweep --seed 1 --out-dir "$OUT"
"$TOOLS/chc_byz" --fuzz 20 --seed 7 --out-dir "$OUT"
