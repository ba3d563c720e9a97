#!/usr/bin/env bash
# Mutation check: every patch under testdata/mutants/ breaks the program on
# purpose, and the one test its header names must catch it.
#
#   bash scripts/mutants.sh      (or: make mutants)
#
# A patch file opens with a header that git apply skips:
#
#   Mutant: what the patch breaks, in a sentence or two.
#   Package: ./internal/wal
#   Test: TestRotationFsyncErrorFailsTheAppend
#
# followed by the diff, with paths relative to the repository root. Each
# patch is applied to a fresh copy of the working tree (uncommitted changes
# included; the working tree itself is never touched) under a temporary
# directory: the named test must pass on the copy, then the patch is
# applied, the mutant's test binary must build, and the named test must
# fail. The script exits 1 when a test fails unmutated, when a patch no
# longer applies, when its mutant does not build, or when its test passes:
# a mutant that survived.
set -euo pipefail

root="$(git rev-parse --show-toplevel)"
work="$(mktemp -d "${TMPDIR:-/tmp}/ppc-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT

status=0
for patch in "$root"/testdata/mutants/*.patch; do
	name="$(basename "$patch" .patch)"
	pkg="$(sed -n 's/^Package: //p' "$patch" | head -n 1)"
	test="$(sed -n 's/^Test: //p' "$patch" | head -n 1)"
	if [ -z "$pkg" ] || [ -z "$test" ]; then
		echo "mutant $name: no Package: or Test: line in its header"
		status=1
		continue
	fi
	tree="$work/$name"
	mkdir -p "$tree"
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$tree"
	if ! (cd "$tree" && go test -count=1 -run "^${test}\$" "$pkg" >"$work/$name.log" 2>&1); then
		echo "mutant $name: $test in $pkg fails without the mutation"
		cat "$work/$name.log"
		status=1
	elif ! (cd "$tree" && git apply "$patch"); then
		echo "mutant $name: the patch no longer applies"
		status=1
	elif ! (cd "$tree" && go test -count=1 -run '^$' "$pkg" >/dev/null); then
		echo "mutant $name: does not build"
		status=1
	elif (cd "$tree" && go test -count=1 -run "^${test}\$" "$pkg" >"$work/$name.log" 2>&1); then
		echo "mutant $name: SURVIVED, $test in $pkg passes on it"
		status=1
	else
		echo "mutant $name: caught by $test"
	fi
	rm -rf "$tree"
done
exit "$status"
