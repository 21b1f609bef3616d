#!/bin/sh
# Faulty lpm runs whose host walks meet a wild pointer (the boot
# builder after a corrupted root cell, the per-packet path audit): each
# run must finish and count the affected trials as fatal, instead of
# stopping the host on a backing-store assert.
#
#   sh lpm_wild_pointer.sh CLUMSY_SIM
set -e
sim=$1
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

for args in \
    '--cr 0.5 --fault-scale 1000000 --ctrl-rate 100 --trials 3 --packets 500' \
    '--cr 0.25 --scheme two-strike --fault-scale 100000 --packets 300 --trials 3'
do
    # shellcheck disable=SC2086
    "$sim" --app lpm $args --json > "$d/out.json"
    if ! grep -Eq '"fatal_fraction": (0\.[0-9]*[1-9]|1)' "$d/out.json"; then
        echo "no fatal trial: $args"
        exit 1
    fi
done
echo WILD_OK
