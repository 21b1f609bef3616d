#!/bin/sh
# Hostile-rate grid: the ten apps at Cr 0.25 under fault rates far
# above eq. (4) (fault-scale 1e5 and 1e7), with and without detection
# and control-plane churn. The sweep must exit 0 and write every cell:
# a faulty trial may die as fatal, the host may not.
#
#   sh hostile_grid.sh CLUMSY_SWEEP core|chip|card
set -e
sweep=$1
case $2 in
    core) tier= ;;
    chip) tier=';pes=4;l2=shared' ;;
    card) tier=';chips=2;dram-banks=4' ;;
    *) echo "unknown tier: $2"; exit 1 ;;
esac
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

apps=crc,tl,route,drr,nat,md5,url,lpm,session,adpcm
grid="app=$apps;cr=0.25;scheme=no-detection,two-strike"
grid="$grid;fault-scale=100000,10000000;ctrl=0,100$tier"
"$sweep" --grid "$grid;packets=200;trials=2" --jobs 2 --no-timing \
    --quiet --out "$d/out.json"
grep -q '^  "cells": 80,$' "$d/out.json"
test "$(grep -c '"key": ' "$d/out.json")" = 80
echo HOSTILE_OK
