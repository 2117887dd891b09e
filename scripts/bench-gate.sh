#!/bin/sh
# Engine speed gate. Measures BenchmarkCell (CG and EP, each Serial,
# HT on -2-1 and HT off -2-2, at scale 0.1) on HEAD's first parent and on
# the working tree, on this host, in this run. Fails when the working
# tree's total cells/s falls below 80 % of the parent's, or when a
# sub-benchmark the parent has is missing from the working tree; new
# sub-benchmarks are reported and allowed.
#
# The reference is the parent code measured next to the candidate, never
# a number recorded on another machine: absolute cells/s differ ~2x
# between hosts, while the paired ratio does not.
#
# The parent is built from a git worktree of the local repository, so
# nothing is downloaded; the clone needs two commits of history. In CI a
# pull_request checkout is a merge commit whose first parent is the
# base-branch tip, and a push to main compares against the previous main
# commit.
#
# Throughput noise on a shared host is one-sided (a neighbour can only
# steal cycles), so each side keeps its best ns/op per sub-benchmark over
# the rounds, and the order of the two sides alternates every round.
set -eu

cd "$(dirname "$0")/.."

bound=0.8    # candidate total cells/s must stay >= bound x parent's
rounds=3
benchtime=5x # iterations per sub-benchmark per round, after go test's own 1x warmup
cpu=2        # GOMAXPROCS for both sides, so sub-benchmark names match

# The grid runs at its compiled-in scale on both sides.
unset XEONOMP_BENCH_SCALE

base_rev="$(git rev-parse --verify --quiet 'HEAD^1')" || {
    echo "bench-gate: HEAD has no parent commit in this clone (it needs two commits of history)" >&2
    exit 1
}

tmp="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
    git worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM

git worktree add --quiet --detach "$tmp/base" "$base_rev"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/cand.test" .

# measure SIDE DIR appends "SIDE NAME NS_PER_OP" lines to $tmp/results.
measure() {
    if ! (cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench '^BenchmarkCell$' \
        -test.benchtime "$benchtime" -test.cpu "$cpu" -test.timeout 10m) >"$tmp/out" 2>&1; then
        cat "$tmp/out" >&2
        echo "bench-gate: BenchmarkCell failed on the $1 side" >&2
        exit 1
    fi
    awk -v side="$1" -v suffix="-$cpu" '
        $1 ~ /^BenchmarkCell\// {
            name = substr($1, length("BenchmarkCell/") + 1)
            if (substr(name, length(name) - length(suffix) + 1) == suffix)
                name = substr(name, 1, length(name) - length(suffix))
            for (i = 3; i <= NF; i++) if ($i == "ns/op") print side, name, $(i - 1)
        }' "$tmp/out" >>"$tmp/results"
}

: >"$tmp/results"
round=1
while [ "$round" -le "$rounds" ]; do
    if [ $((round % 2)) -eq 1 ]; then order="base cand"; else order="cand base"; fi
    for side in $order; do
        if [ "$side" = base ]; then measure base "$tmp/base"; else measure cand .; fi
    done
    round=$((round + 1))
done

echo "bench-gate: BenchmarkCell, $(git rev-parse --short "$base_rev") (HEAD^1) -> working tree, best of $rounds rounds x $benchtime"
awk -v bound="$bound" '
    {
        key = $1 SUBSEP $2
        if (!(key in best) || $3 < best[key]) best[key] = $3
        if ($1 == "base" && !($2 in seen)) { seen[$2] = 1; order[++n] = $2 }
        if ($1 == "cand" && !($2 in cseen)) { cseen[$2] = 1; corder[++m] = $2 }
    }
    END {
        if (n == 0) { print "bench-gate: no BenchmarkCell results from the base side" > "/dev/stderr"; exit 1 }
        fail = 0
        for (i = 1; i <= n; i++) {
            k = order[i]
            b = 1e9 / best["base", k]
            bsum += best["base", k]
            if (!(("cand", k) in best)) {
                printf "  %-16s %8.2f -> missing\n", k, b
                fail = 1
                continue
            }
            c = 1e9 / best["cand", k]
            csum += best["cand", k]
            printf "  %-16s %8.2f -> %8.2f cells/s (%+.1f%%)\n", k, b, c, 100 * (c / b - 1)
        }
        for (j = 1; j <= m; j++)
            if (!(corder[j] in seen))
                printf "  %-16s      new -> %8.2f cells/s (not gated)\n", corder[j], 1e9 / best["cand", corder[j]]
        fflush()
        if (fail) {
            print "bench-gate: FAIL: the working tree drops sub-benchmarks the parent has" > "/dev/stderr"
            exit 1
        }
        btot = n * 1e9 / bsum
        ctot = n * 1e9 / csum
        ratio = ctot / btot
        printf "  %-16s %8.2f -> %8.2f cells/s (%+.1f%%), ratio %.3f, gate at %.2f\n", "total", btot, ctot, 100 * (ratio - 1), ratio, bound
        fflush()
        if (ratio < bound) {
            printf "bench-gate: FAIL: total cells/s fell to %.3f of the parent (bound %.2f)\n", ratio, bound > "/dev/stderr"
            exit 1
        }
        print "bench-gate: ok"
    }' "$tmp/results"
