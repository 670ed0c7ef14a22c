#!/usr/bin/env bash
# Code size per library: `wc -l` over each lib/<library>'s .ml and .mli
# files, one line per library, then a last line "loc: <total> lines in
# lib/". Run from anywhere: scripts/loc.sh
set -eu -o pipefail
cd "$(dirname "$0")/.."

total=0
for dir in lib/*/; do
  lines=$(cat "$dir"*.ml "$dir"*.mli 2>/dev/null | wc -l)
  printf '%-12s %6d\n' "$(basename "$dir")" "$lines"
  total=$((total + lines))
done
echo "loc: $total lines in lib/"
