#!/usr/bin/env bash
# Checks that the working tree runs the same program as an earlier commit:
# every operation count the benchmark records (messages, bytes, loss bits,
# serving answers) must be identical.
#
#   scripts/same_program.sh <parent-ref> [seed...]
#
# Exports <parent-ref> with `git archive` into a temporary directory. In
# both trees it then runs
#   python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0
# for every workload W and seed S (default seeds: 1 2), plus --trace 1 for
# the first seed; the counts do not depend on run length. Each run writes
# .bench_build/counts/W-S-<code hash>.txt in its tree. The script compares
# those files key by key and exits 1, listing every key that differs (and
# every run that failed), or 0 when all agree. It changes nothing under
# perfbench/. The parent's first run builds the benchmark from scratch
# (about a minute on 4 cores).
set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <parent-ref> [seed...]" >&2
  exit 2
fi
parent_ref=$1
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2)

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
parent="$tmp/parent"
mkdir "$parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$parent"

# Ask a tree's own perfbench/run.py for its workloads and the code hash in
# its counts file names (-B: write no bytecode under perfbench/).
perfbench_attr() {
  python3 -B -c 'import sys; sys.path.insert(0, sys.argv[1]); import run
v = getattr(run, sys.argv[2]); print(" ".join(v) if isinstance(v, list) else v())' \
    "$1/perfbench" "$2"
}
read -r -a workloads <<<"$(perfbench_attr "$root" WORKLOADS)"

failed=0
run_tree() {  # run_tree <tree> <label>
  local tree=$1 label=$2 w s trace
  for w in "${workloads[@]}"; do
    for s in "${seeds[@]}"; do
      for trace in 0 1; do
        [ "$trace" = 0 ] || [ "$s" = "${seeds[0]}" ] || continue
        echo "same_program: $label $w seed $s trace $trace" >&2
        if ! (cd "$tree" && python3 perfbench/run.py --workload "$w" --seed "$s" \
                --seconds 1 --trace "$trace") >"$tmp/run.log" 2>&1; then
          echo "FAILED: $label $w seed $s trace $trace" >&2
          tail -n 20 "$tmp/run.log" >&2
          failed=1
        fi
      done
    done
  done
}
run_tree "$parent" parent
run_tree "$root" change

parent_hash=$(perfbench_attr "$parent" code_hash)
change_hash=$(perfbench_attr "$root" code_hash)
differ=0
for w in "${workloads[@]}"; do
  for s in "${seeds[@]}"; do
    if ! python3 - "$parent/.bench_build/counts/$w-$s-$parent_hash.txt" \
        "$root/.bench_build/counts/$w-$s-$change_hash.txt" "$w seed $s" <<'EOF'
import sys

def load(path):
    try:
        with open(path) as f:
            return dict(line.split(" ", 1) for line in f.read().splitlines() if line)
    except OSError:
        return None

parent, change, label = load(sys.argv[1]), load(sys.argv[2]), sys.argv[3]
if parent is None or change is None:
    print(f"{label}: counts file missing ({sys.argv[1] if parent is None else sys.argv[2]})")
    sys.exit(1)
keys = [k for k in sorted(set(parent) | set(change)) if parent.get(k) != change.get(k)]
for k in keys:
    print(f"{label}: {k}: parent {parent.get(k, '(absent)')}, change {change.get(k, '(absent)')}")
print(f"{label}: {len(parent)} keys, {len(keys)} differ", file=sys.stderr)
sys.exit(1 if keys else 0)
EOF
    then
      differ=1
    fi
  done
done

if [ "$failed" = 1 ] || [ "$differ" = 1 ]; then
  echo "same_program: DIFFERENT (failed runs: $failed, differing counts: $differ)"
  exit 1
fi
echo "same_program: identical counts for ${workloads[*]} at seeds ${seeds[*]}"
