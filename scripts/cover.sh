#!/bin/sh
# Per-package coverage floor for the learned-policy surface.
#
# Runs `go test -coverprofile` for each listed package and fails when
# any falls below the floor. The floor guards the packages recent PRs
# made load-bearing — the mm pipeline stages and their name lookup,
# the learn primitives, the CXL surface (per-GPU counters, the pool
# controller and co-location), and the simlint framework plus its
# interprocedural analyzers — not the whole module: simulator
# hot paths are covered by the golden and determinism suites instead.
set -eu

FLOOR=70
PACKAGES="uvmsim/internal/mm uvmsim/internal/learn uvmsim/internal/counters uvmsim/internal/cxl
uvmsim/internal/lint uvmsim/internal/lint/lockhold uvmsim/internal/lint/goroleak"

fail=0
for pkg in $PACKAGES; do
    profile=$(mktemp /tmp/cover.XXXXXX.out)
    go test -coverprofile="$profile" "$pkg" >/dev/null
    pct=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f "$profile"
    ok=$(awk -v p="$pct" -v f="$FLOOR" 'BEGIN {print (p >= f) ? 1 : 0}')
    if [ "$ok" = 1 ]; then
        echo "cover: $pkg ${pct}% (floor ${FLOOR}%)"
    else
        echo "cover: $pkg ${pct}% BELOW floor ${FLOOR}%" >&2
        fail=1
    fi
done
exit $fail
