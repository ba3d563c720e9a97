#!/usr/bin/env bash
# Same-runner A/B of one bench/ workload: the working tree against <base-ref>,
# measured on this host, in this session, alternating which tree runs first.
#
#   scripts/ab.sh <base-ref> <workload>      (make ab BASE=<ref> W=<workload>)
#
# <base-ref> is checked out into a scratch worktree — or, when it names a
# directory holding bench/run.sh (a `git clone` or `git archive` of the base,
# where `git worktree` cannot be used), that tree is the base as it stands and
# no worktree is added or removed; both trees then run
# `bash bench/run.sh --workload W --seed 2012 --seconds 10` five times each.
# A run that reports failed operations fails the A/B. The runs are collected
# into bench/out/ab/W.base.json and W.head.json, in the shape
# `go run -C bench . -compare` reads, and the exit status is that command's:
# 1 when an end-to-end metric is worse than the base by more than its
# BENCHMARK.json bound ("unresolved" rows, where the spread is wider than the
# bound, do not fail). The last line on stdout is one BENCH_LEDGER.json row:
# each side's median op_p50_us and their ratio, and per side the median raw
# p50 and host factor behind op_p50_us and its first and third quartiles.
#
# Writes only under bench/out/ (gitignored) — of both trees, when the base is
# a directory; the scratch worktree is removed on exit, also on failure or
# interrupt. The run settings are BENCHMARK.json's and are not options:
# numbers taken with other settings are not comparable.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: scripts/ab.sh <base-ref> <workload>" >&2
	exit 2
fi
base_ref=$1
workload=$2
pairs=5
seed=2012
seconds=10

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
out=$root/bench/out/ab
mkdir -p "$out"

if [ -f "$base_ref/bench/run.sh" ]; then
	tree=$(cd "$base_ref" && pwd)
else
	tree=$out/base-tree
	cleanup() {
		git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
		git -C "$root" worktree prune
	}
	trap cleanup EXIT
	cleanup # a tree left by a killed run, or an entry whose tree `rm -rf bench/out` took
	git -C "$root" worktree add --quiet --detach "$tree" "$base_ref"
fi

# run_one <tree> <side>: one run of the workload in that tree; prints the
# run's result line. The harness's tables go to stderr, as it wrote them,
# once the run ends; their op_p50_us line, whose note holds the raw p50 and
# the host factor the result line does not carry, is kept in
# $out/$workload.<side>.p50.
run_one() {
	local line
	# A run with failed operations exits 1 after printing its line; judge by
	# the line, so that the message can say which.
	line=$(bash "$1/bench/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" 2>"$out/$workload.$2.err" | tail -n 1) || true
	cat "$out/$workload.$2.err" >&2
	grep -E '^ +op_p50_us .*as measured' "$out/$workload.$2.err" | grep -v 'of the other pass' >>"$out/$workload.$2.p50" || true
	if ! jq -es 'length == 1 and .[0].failed == 0' >/dev/null 2>&1 <<<"$line"; then
		echo "ab: $workload in $1: run failed or reported failed operations: ${line:-no result line}" >&2
		exit 1
	fi
	printf '%s\n' "$line"
}
rm -f "$out/$workload.base.p50" "$out/$workload.head.p50"

base_runs=()
head_runs=()
for ((i = 1; i <= pairs; i++)); do
	echo "ab: $workload pair $i/$pairs" >&2
	if ((i % 2)); then
		base_runs+=("$(run_one "$tree" base)")
		head_runs+=("$(run_one "$root" head)")
	else
		head_runs+=("$(run_one "$root" head)")
		base_runs+=("$(run_one "$tree" base)")
	fi
done

# result_file <path> <run>...: the runs as one result file of this workload.
result_file() {
	local path=$1
	shift
	printf '%s\n' "$@" | jq -s --arg w "$workload" '{workloads: {($w): .}}' >"$path"
}
result_file "$out/$workload.base.json" "${base_runs[@]}"
result_file "$out/$workload.head.json" "${head_runs[@]}"

# The comparison builds where run.sh builds, so nothing lands outside bench/out/.
status=0
GOCACHE=$root/bench/out/gocache GOTMPDIR=$root/bench/out/tmp \
	go run -C "$root/bench" . -compare "$out/$workload.base.json" "$out/$workload.head.json" || status=$?

# notes <side>: the side's op_p50_us notes ("as measured R us, host Hx
# nominal") as a JSON array of {raw, host}.
notes() {
	sed -nE 's/.*as measured ([0-9.eE+-]+) us, host ([0-9.eE+-]+)x.*/{"raw": \1, "host": \2}/p' "$out/$workload.$1.p50" | jq -s -c .
}

# Per side, beside the median op_p50_us: the median raw p50 and host factor
# from those notes, and the first and third quartiles of op_p50_us (the
# quartiles `-compare` takes, Python's statistics.quantiles(n=4)).
jq -n -c --arg w "$workload" --argjson seed "$seed" --argjson pairs "$pairs" \
	--slurpfile base "$out/$workload.base.json" --slurpfile head "$out/$workload.head.json" \
	--argjson basenotes "$(notes base)" --argjson headnotes "$(notes head)" '
	def median: sort | if length % 2 == 1 then .[(length - 1) / 2] else (.[length / 2 - 1] + .[length / 2]) / 2 end;
	def quartile(i): sort | length as $m |
		if $m < 2 then .[0] else
			(i * ($m + 1) / 4) as $pos | ([([($pos | floor), 1] | max), $m - 1] | min) as $j |
			.[$j - 1] + (.[$j] - .[$j - 1]) * ($pos - $j)
		end;
	def digits(n): . * n | round / n;
	def side(f; notes; name): f[0].workloads[$w] | map(.metrics.op_p50_us.value) as $p50 |
		{(name + "_op_p50_us"): ($p50 | median),
		 (name + "_raw_p50_us"): (notes | map(.raw) | median | digits(100)),
		 (name + "_host"): (notes | map(.host) | median | digits(1000)),
		 (name + "_op_p50_q1_us"): ($p50 | quartile(1) | digits(100)),
		 (name + "_op_p50_q3_us"): ($p50 | quartile(3) | digits(100))};
	side($base; $basenotes; "parent") as $parent | side($head; $headnotes; "change") as $change |
	{workload: $w, seed: $seed, pairs: $pairs,
	 parent_op_p50_us: ($parent.parent_op_p50_us | digits(100)), change_op_p50_us: ($change.change_op_p50_us | digits(100)),
	 ratio: ($change.change_op_p50_us / $parent.parent_op_p50_us | digits(1000))} +
	($parent | del(.parent_op_p50_us)) + ($change | del(.change_op_p50_us))'
exit "$status"
