#!/bin/sh
# Front-end reachability gate (DESIGN.md §17).
#
# Builds every front end with coverage instrumentation, runs what CI and
# the benchmark run, merges the counters with `go tool covdata`, and
# compares the functions that no run reached against
# scripts/reach-reasons.txt. It fails when a function is unreached and
# has no entry, or when an entry names a function that is now reached or
# no longer exists. Entries are keyed by file and function name
# (`(*T).M` for a method), never by line.
#
#	./scripts/reach.sh          # the gate (make reach)
#	./scripts/reach.sh -list    # print every unreached function and exit
#
# Stdlib toolchain only. The bench binary is compiled from bench/ (its own
# module) with -coverpkg=uvmsim/...; nothing under bench/ is written.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
reasons="$root/scripts/reach-reasons.txt"
work=$(mktemp -d /tmp/reach.XXXXXX)
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM
bin="$work/bin"
cov="$work/cov"
out="$work/out"
mkdir -p "$bin" "$cov" "$out"
cd "$root"

echo "reach: building instrumented binaries"
for cmd in paperbench uvmsim simd simlint; do
    go build -cover -coverpkg=./... -o "$bin/$cmd" "./cmd/$cmd"
done
examples=""
for dir in examples/*/; do
    name=$(basename "$dir")
    examples="$examples $name"
    go build -cover -coverpkg=./... -o "$bin/example-$name" "./$dir"
done
(cd bench && go build -cover -coverpkg=uvmsim/... -o "$bin/bench" .)

# run CMD ARGS... runs one front-end invocation with its coverage
# counters written under $cov; its output goes to $out/log.
run() {
    echo "reach: $*"
    GOCOVERDIR="$cov" "$@" >>"$out/log" 2>&1 || {
        echo "reach: FAILED: $*" >&2
        tail -n 20 "$out/log" >&2
        exit 1
    }
}

# CI's observability, tournament, serve and co-location smokes, as the
# Makefile lists them, on the instrumented binaries.
run make -s -C "$root" smoke tournament-smoke serve-smoke colo-smoke \
    PAPERBENCH="$bin/paperbench" UVMSIM="$bin/uvmsim" SIMD="$bin/simd"
# Every figure the repository reproduces.
run "$bin/paperbench" -fig 1,2,3,4,5,6,7,8,multigpu,hints -scale 0.3
for name in $examples; do
    run "$bin/example-$name"
done
run "$bin/simlint" ./...
# The benchmark's smoke, untraced and traced: the traced run is what
# reaches the per-layer hooks (uvm.(*Driver).Link, gpu.(*GPU).RunSync).
run "$bin/bench" -smoke
run "$bin/bench" -smoke -trace 1

go tool covdata textfmt -i="$cov" -o "$work/all.txt"
# bench/ is the benchmark's own module: it is not gated here.
grep -v '^uvmsim/bench/' "$work/all.txt" >"$work/profile.txt"
go tool cover -func="$work/profile.txt" >"$work/func.txt"

# Key each unreached function as "file name", naming a method by its
# receiver type, read from the declaration line the profile points at.
grep '[[:space:]]0\.0%$' "$work/func.txt" | while IFS= read -r line; do
    loc=${line%%:*}
    file=${loc#uvmsim/}
    rest=${line#*:}
    lineno=${rest%%:*}
    name=$(echo "$rest" | awk '{print $2}')
    recv=$(sed -n "${lineno}s/^func (\([A-Za-z_0-9]* \)\{0,1\}\(\**\)\([A-Za-z_0-9]*\)[^)]*) .*/\2\3/p" "$file")
    case $recv in
    "") key=$name ;;
    \**) key="($recv).$name" ;;
    *) key="$recv.$name" ;;
    esac
    echo "$file $key"
done >"$work/unreached.txt"
# A package that no binary links has no counters at all; one with
# functions is keyed "dir/ *" and needs an entry like a function.
go list -f '{{if .GoFiles}}{{.ImportPath}} {{.Dir}}{{end}}' ./... | while read -r pkg dir; do
    grep -q "^$pkg/[^/]*:" "$work/profile.txt" && continue
    for f in "$dir"/*.go; do
        case $f in *_test.go) continue ;; esac
        if grep -q '^func ' "$f"; then
            echo "${pkg#uvmsim/}/ *"
            break
        fi
    done
done >>"$work/unreached.txt"
sort -u "$work/unreached.txt" -o "$work/unreached.txt"

total=$(awk '/^total:/ {print $3}' "$work/func.txt")
count=$(wc -l <"$work/unreached.txt" | tr -d ' ')
echo "reach: $total of statements reached; $count functions and packages unreached"

if [ "${1:-}" = -list ]; then
    cat "$work/unreached.txt"
    exit 0
fi

fail=0
# Every test a reason names exists.
for name in $(grep -v '^#' "$reasons" | grep -o 'Test[A-Za-z0-9_]*' | sort -u); do
    if ! grep -rqs --include='*_test.go' --exclude-dir=.bench_build "^func $name(" .; then
        echo "reach: $(basename "$reasons") names $name, which no test file declares" >&2
        fail=1
    fi
done
# Every entry carries one of the allowed reason kinds and a reason.
bad=$(grep -v '^#' "$reasons" | grep -v '^[[:space:]]*$' |
    awk '$3 !~ /^(flag|error|protocol|model|reference|lint)$/ || NF < 4')
if [ -n "$bad" ]; then
    echo "reach: entries without an allowed kind (flag, error, protocol, model, reference, lint) and a reason:" >&2
    echo "$bad" >&2
    fail=1
fi
grep -v '^#' "$reasons" | awk 'NF {print $1, $2}' | sort >"$work/listed.txt"
dups=$(uniq -d "$work/listed.txt")
if [ -n "$dups" ]; then
    echo "reach: functions listed more than once:" >&2
    echo "$dups" >&2
    fail=1
fi
sort -u "$work/listed.txt" -o "$work/listed.txt"
missing=$(comm -23 "$work/unreached.txt" "$work/listed.txt")
if [ -n "$missing" ]; then
    echo "reach: unreached by every front end and absent from $(basename "$reasons") (delete it, or give it a reason):" >&2
    echo "$missing" >&2
    fail=1
fi
stale=$(comm -13 "$work/unreached.txt" "$work/listed.txt")
if [ -n "$stale" ]; then
    echo "reach: stale entries in $(basename "$reasons") (the function is reached or no longer exists):" >&2
    echo "$stale" >&2
    fail=1
fi
[ "$fail" = 0 ] && echo "reach: ok"
exit $fail
