#!/usr/bin/env bash
# A/B comparison of two revisions on every workload and end-to-end
# metric of BENCHMARK.json.
#
#   bench/e2e/ab.sh PARENT CHANGE [PAIRS=10] [SEED=1]
#
# Checks both revisions out in temporary git worktrees, puts this
# checkout's bench/e2e into both (so both sides run identical benchmark
# code), builds each, then runs PAIRS pairs, alternating which side
# runs first. Each run is one planck_e2e.exe invocation over all four
# workloads with BENCHMARK.json's run_seconds per workload. For each
# workload and metric it prints both sides' median and quartiles, the
# change's wins out of the pairs, and a verdict:
#   better      the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's interquartile range
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound
#   unresolved  the parent's own spread is wider than the bound, and not
#               every change run beats every parent run
#   same        none of the above
# Both sides run the same seed, so the simulated metrics (goodput_gbps)
# are exact: it also prints, per workload, whether the two sides'
# sim_digest matches, which shows any change in what was simulated,
# however far inside the bounds.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT CHANGE [PAIRS=10] [SEED=1]" >&2
  exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
seed=${4:-1}

if [ "$pairs" -lt 10 ]; then
  echo "ab.sh: fewer than 10 pairs; the verdicts are only indicative" >&2
fi

root="$(git rev-parse --show-toplevel)"
bench="$root/bench/e2e"
spec="$root/BENCHMARK.json"
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
work="$(mktemp -d "${TMPDIR:-/tmp}/planck-ab.XXXXXX")"

cleanup() {
  for side in parent change; do
    if [ -d "$work/$side" ]; then
      git -C "$root" worktree remove --force "$work/$side" || true
    fi
  done
  rm -rf "$work"
}
trap cleanup EXIT

build() { # side revision
  git -C "$root" worktree add --quiet --detach "$work/$1" "$2"
  rm -rf "$work/$1/bench/e2e"
  cp -R "$bench" "$work/$1/bench/e2e"
  cp "$spec" "$work/$1/BENCHMARK.json"
  (cd "$work/$1" && dune build --root . ./bench/e2e/planck_e2e.exe)
}

run() { # side pair
  if ! "$work/$1/_build/default/bench/e2e/planck_e2e.exe" --seed "$seed" \
    --seconds "$seconds" --json "$work/$1-$2.json" > "$work/$1-$2.out"; then
    echo "ab.sh: $1 failed its correctness checks in pair $2:" >&2
    grep FAILED "$work/$1-$2.out" >&2 || true
    exit 1
  fi
}

build parent "$parent"
build change "$change"
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"; run change "$i"
  else
    run change "$i"; run parent "$i"
  fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$spec" "$work" "$pairs" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
work, pairs = sys.argv[2], int(sys.argv[3])

def load(side, i):
    return json.load(open(f"{work}/{side}-{i}.json"))["workloads"]

runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("parent", "change")}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3

print(f"{'workload':<11} {'metric':<13} {'parent q1/med/q3':>28} "
      f"{'change q1/med/q3':>28} {'wins':>6}  verdict")
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        a = [r[w]["metrics"][name]["value"] for r in runs["parent"]]
        b = [r[w]["metrics"][name]["value"] for r in runs["change"]]
        if None in a or None in b:
            print(f"{w:<11} {name:<13} missing values")
            continue
        better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
        wins = sum(better(y, x) for x, y in zip(a, b))
        aq, bq = quartiles(a), quartiles(b)
        gap = bq[1] - aq[1]
        worse_by = (gap if lower else -gap) / aq[1] if aq[1] else 0.0
        spread = (aq[2] - aq[0]) / aq[1] if aq[1] else 0.0
        if wins >= 0.9 * pairs and better(bq[1], aq[1]) and abs(gap) > aq[2] - aq[0]:
            verdict = "better"
        elif worse_by > bound:
            verdict = f"worse ({100 * worse_by:.1f}% > {100 * bound:.0f}%)"
        elif spread > bound and not all(better(y, x) for x in a for y in b):
            verdict = "unresolved"
        else:
            verdict = "same"
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{w:<11} {name:<13} {fmt(aq):>28} {fmt(bq):>28} "
              f"{wins:>3}/{pairs:<2}  {verdict}")

for w in [x["name"] for x in spec["workloads"]]:
    a = {r[w]["sim_digest"] for r in runs["parent"]}
    b = {r[w]["sim_digest"] for r in runs["change"]}
    print(f"{w:<11} sim_digest {'same' if a == b else 'differs: the change simulates something else'}")
EOF
