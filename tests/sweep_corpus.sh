#!/bin/sh
# Sweep-format corpus check: re-run a committed clumsy_sweep document's
# grid, then resume that grid from the document; both runs must
# reproduce the committed JSON and CSV byte for byte, and the resumed
# run must re-run no cell.
#
#   sh sweep_corpus.sh CLUMSY_SWEEP GOLDEN
#
# GOLDEN.json and GOLDEN.csv hold --no-timing output; the grid is the
# document's own "spec" line.
set -e
sweep=$1
golden=$2
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

grid=$(sed -n 's/^  "spec": "\(.*\)",$/\1/p' "$golden.json")
test -n "$grid"

"$sweep" --grid "$grid" --jobs 2 --no-timing --quiet \
    --out "$d/fresh.json" --csv "$d/fresh.csv"
cmp "$d/fresh.json" "$golden.json"
cmp "$d/fresh.csv" "$golden.csv"

cp "$golden.json" "$d/resumed.json"
"$sweep" --grid "$grid" --jobs 2 --no-timing --quiet --resume \
    --out "$d/resumed.json" --csv "$d/resumed.csv" 2> "$d/log"
cells=$(sed -n 's/^\([0-9]*\) cells (\([0-9]*\) resumed).*/\1 \2/p' \
    "$d/log")
set -- $cells
test "$1" -gt 0
test "$1" = "$2"
cmp "$d/resumed.json" "$golden.json"
cmp "$d/resumed.csv" "$golden.csv"
echo CORPUS_OK
