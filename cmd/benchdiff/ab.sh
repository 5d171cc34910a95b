#!/usr/bin/env bash
# A/B benchmark gate. Builds the root package's test binary at a base git ref
# and from the working tree, runs the two alternately on this machine over
# the gated benchmarks, and compares the runs with benchdiff.
#
#   bash cmd/benchdiff/ab.sh <base-ref> <out-dir>
#
# <out-dir> (best outside the repository) receives base.txt and head.txt,
# each holding every run's `go test -bench -benchmem` output, plus the
# binaries. Exit status: 0 ok, 1 regression (benchdiff's verdicts), 2 bad
# input or a harness failure (a ref that does not resolve, a build that
# fails, a benchmark that panics). The base tree is checked out with
# `git worktree` and removed again on exit.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash cmd/benchdiff/ab.sh <base-ref> <out-dir>" >&2
	exit 2
fi
repo=$(git rev-parse --show-toplevel) || exit 2
base_ref=$(git -C "$repo" rev-parse --verify "$1^{commit}") || exit 2
mkdir -p "$2" || exit 2
out=$(cd "$2" && pwd)

# The gated set. Hot paths run at the default benchtime; experiment-scale
# benchmarks regenerate their experiment once per run. Everything runs at
# GOMAXPROCS=1: experiment legs then run serially, which makes their
# allocation counts repeat run to run.
hot=(AdmissionDecision PredictWaitCFQ CFQSubmitDispatch DeadlineSubmitDispatch
	SSDSubmitDispatch PutAdmission ReplicaCalls DiskDestage SeekCost EngineThroughput
	EngineCancelHeavy EngineMixedHorizon ZipfNext)
experiments=(Fig4 YCSBMix LoadSweep)
rounds=7

git -C "$repo" worktree add --detach "$out/base-src" "$base_ref" >/dev/null || exit 2
trap 'git -C "$repo" worktree remove --force "$out/base-src"' EXIT
(cd "$out/base-src" && go test -c -o "$out/base.test" .) || exit 2
(cd "$repo" && go test -c -o "$out/head.test" . && go build -o "$out/benchdiff" ./cmd/benchdiff) || exit 2

# run <side> <benchmark> [test flags]: one run of one benchmark, from its
# side's source tree, appended to <side>.txt. A failed run ends the gate.
run() {
	local side=$1 name=$2 dir=$repo
	shift 2
	[ "$side" = base ] && dir=$out/base-src
	(cd "$dir" && "$out/$side.test" -test.run '^$' -test.bench "^Benchmark$name\$" \
		-test.benchmem -test.cpu 1 -test.timeout 30m "$@") >>"$out/$side.txt" || exit 2
}

# pair <benchmark> [test flags]: one run on each side back to back, so both
# see the same machine state; which side goes first alternates by round.
pair() {
	if ((r % 2)); then
		run base "$@" && run head "$@"
	else
		run head "$@" && run base "$@"
	fi
}

: >"$out/base.txt"
: >"$out/head.txt"
start=$SECONDS
for ((r = 1; r <= rounds; r++)); do
	for b in "${hot[@]}"; do pair "$b"; done
	for b in "${experiments[@]}"; do pair "$b" -test.benchtime 1x; done
	echo "ab: round $r/$rounds done after $((SECONDS - start))s" >&2
done
"$out/benchdiff" "$out/base.txt" "$out/head.txt"
