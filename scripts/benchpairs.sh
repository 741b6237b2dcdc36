#!/usr/bin/env bash
# Alternating base/change pairs of one bench/ workload, the form every
# performance claim in this repository is judged in:
#
#   BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1] [METRIC=p50_rel] scripts/benchpairs.sh
#
# (or `make benchpairs BASE=... WORKLOAD=...`). BASE is checked out into a
# temporary git worktree, removed on exit; the change side is this working
# tree. Pair i runs base first when i is odd and the change first when it
# is even. Every run's record goes to bench/out/pairs-<workload>-s<seed>-
# {base,change}.json (emptied first), each pair's value of METRIC is
# printed side by side with both runs' failed-operation counts, and the
# loop ends with `bash bench/run.sh -compare` over the two files. Each run
# is a full bench/run.sh workload run (about 35 s); nothing under bench/ is
# edited.
set -euo pipefail

: "${BASE:?BASE=<rev> names the base side}"
: "${WORKLOAD:?WORKLOAD=<name> names one bench/ workload}"
PAIRS=${PAIRS:-10}
SEED=${SEED:-1}
METRIC=${METRIC:-p50_rel}

root=$(git rev-parse --show-toplevel)
out="$root/bench/out"
mkdir -p "$out"
tmp=$(mktemp -d)
wt="$tmp/base"
git -C "$root" worktree add --quiet --detach "$wt" "$BASE"
cleanup() {
	git -C "$root" worktree remove --force "$wt" || true
	rm -rf "$tmp"
}
trap cleanup EXIT

tag="pairs-$WORKLOAD-s$SEED"
declare -A files=([base]="$out/$tag-base.json" [change]="$out/$tag-change.json")
declare -A dirs=([base]="$wt" [change]="$root")
rm -f "${files[base]}" "${files[change]}"

# field prints one number of a run's JSON result line (the last line
# bench/run.sh prints for a workload): the value of metric $2,
# or the top-level count $2, from log $1.
field() {
	local line
	line=$(grep '^{"correct"' "$1" | tail -1)
	case $2 in
	failed) grep -o '"failed":[0-9]*' <<<"$line" | head -1 | cut -d: -f2 ;;
	*) grep -o "\"$2\":{\"value\":[-0-9.e+]*" <<<"$line" | cut -d: -f3 ;;
	esac
}

echo "$WORKLOAD seed $SEED: base $(git -C "$wt" rev-parse --short HEAD), change $(git -C "$root" rev-parse --short HEAD) + working tree"
printf '%-5s %-7s %12s %12s %s\n' pair first "base" "change" "failed (base/change)"
for i in $(seq 1 "$PAIRS"); do
	if ((i % 2)); then order=(base change); else order=(change base); fi
	for side in "${order[@]}"; do
		bash "${dirs[$side]}/bench/run.sh" --workload "$WORKLOAD" --seed "$SEED" -out "${files[$side]}" \
			>"$tmp/$side-$i.log" 2>&1 || { cat "$tmp/$side-$i.log"; exit 1; }
	done
	printf '%-5s %-7s %12s %12s %s/%s\n' "$i" "${order[0]}" \
		"$(field "$tmp/base-$i.log" "$METRIC")" "$(field "$tmp/change-$i.log" "$METRIC")" \
		"$(field "$tmp/base-$i.log" failed)" "$(field "$tmp/change-$i.log" failed)"
done
bash "$root/bench/run.sh" -compare "${files[base]}" "${files[change]}"
