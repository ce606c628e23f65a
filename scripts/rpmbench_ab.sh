#!/usr/bin/env bash
# Interleaved A/B runs of one rpmbench workload from two checkouts: a
# parent (A) and a change (B). For every seed it runs one pair, A then B
# on even seeds and B then A on odd ones, so neither side always runs
# first. Each checkout builds and runs its own sources (rpmbench/run.py).
#
# Usage: scripts/rpmbench_ab.sh PARENT_DIR CHANGE_DIR WORKLOAD \
#            FIRST_SEED LAST_SEED [OUT_DIR]
#        (default OUT_DIR: a fresh directory under /tmp)
#
# Every run lasts the benchmark's own run_seconds, read from the change
# checkout's BENCHMARK.json, so the pairs match what the benchmark runs.
#
# OUT_DIR keeps both output lines of every run (provenance and result)
# as <side>-<seed>.out, and its stderr as <side>-<seed>.err. The summary
# then prints, per metric and side, the median and the quartiles over the
# pairs, and how many pairs the change won (lower wins, except
# rate_per_s). The metrics are the result line's, plus raw_train_s,
# rate_per_s, p90_us and train_s / raw_train_s from the provenance line
# where the workload reports them. It also prints, per pair, whether the
# two output digests match, each run's failed operations, and each side's
# HostProbeSeconds address: every probe-scaled metric depends on where
# the linker placed that function.
set -euo pipefail

if [[ $# -lt 5 ]]; then
  awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' \
    "$0" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
first_seed="$4"
last_seed="$5"
seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${change}/BENCHMARK.json")"
out="${6:-$(mktemp -d "/tmp/rpmbench_ab.${workload}.XXXXXX")}"
mkdir -p "${out}"

# Build both sides before the first pair, with run.py's own recipe.
for dir in "${parent}" "${change}"; do
  (cd "${dir}" &&
   python3 -c 'import sys; sys.path.insert(0, "rpmbench"); import run; run.build()')
done

run_side() {  # side dir seed
  local status=0
  (cd "$2" && python3 rpmbench/run.py --workload "${workload}" --seed "$3" \
     --seconds "${seconds}" --trace 0) >"${out}/$1-$3.out" \
     2>"${out}/$1-$3.err" || status=$?
  echo "seed $3 ${1}: exit ${status}" >&2
}

for ((seed = first_seed; seed <= last_seed; ++seed)); do
  if ((seed % 2 == 0)); then
    run_side parent "${parent}" "${seed}"
    run_side change "${change}" "${seed}"
  else
    run_side change "${change}" "${seed}"
    run_side parent "${parent}" "${seed}"
  fi
done

probe() {
  nm -C "$1/.bench_build/rpmbench" | grep 'T rpmbench::HostProbeSeconds' |
    cut -d' ' -f1
}

python3 - "${out}" "${workload}" "${first_seed}" "${last_seed}" \
    "$(probe "${parent}")" "$(probe "${change}")" <<'EOF'
import json
import statistics
import sys

out, workload, first, last, probe_a, probe_b = sys.argv[1:]
seeds = range(int(first), int(last) + 1)
HIGHER_IS_BETTER = {"rate_per_s"}
INFO = ["raw_train_s", "rate_per_s", "p90_us"]


def load(side, seed):
    try:
        with open(f"{out}/{side}-{seed}.out") as f:
            lines = [json.loads(l) for l in f if l.startswith("{")]
    except (OSError, ValueError):
        return None
    if len(lines) < 2:
        return None
    prov, result = lines[-2], lines[-1]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    for k in INFO:
        if k in prov:
            values[k] = float(prov[k])
    if "raw_train_s" in values and values["raw_train_s"] > 0:
        values["train_s/raw_train_s"] = (
            values["train_s"] / values["raw_train_s"])
    return {"digest": prov.get("output_digest"), "failed": result["failed"],
            "attempted": result["attempted"], "values": values}


pairs = []
for seed in seeds:
    a, b = load("parent", seed), load("change", seed)
    if a is None or b is None:
        print(f"seed {seed}: missing result (see {out}/*-{seed}.err)")
        continue
    pairs.append((seed, a, b))

print(f"workload {workload}: {len(pairs)} complete pairs, seeds "
      f"{first}-{last}, outputs in {out}")
print(f"HostProbeSeconds: parent 0x{probe_a or '?'}  change 0x{probe_b or '?'}")
for seed, a, b in pairs:
    same = "equal" if a["digest"] == b["digest"] else "DIFFER"
    print(f"  seed {seed}: digests {same} ({a['digest']} / {b['digest']}), "
          f"failed {a['failed']}/{a['attempted']} -> "
          f"{b['failed']}/{b['attempted']}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


if not pairs:
    sys.exit(1)
names = [k for k in pairs[0][1]["values"] if all(
    k in a["values"] and k in b["values"] for _, a, b in pairs)]
print(f"{'metric':<22}{'parent median (q1-q3)':>34}"
      f"{'change median (q1-q3)':>34}{'change won':>12}")
for k in names:
    xa = [a["values"][k] for _, a, b in pairs]
    xb = [b["values"][k] for _, a, b in pairs]
    if k in HIGHER_IS_BETTER:
        won = sum(vb > va for va, vb in zip(xa, xb))
    else:
        won = sum(vb < va for va, vb in zip(xa, xb))
    qa, qb = quartiles(xa), quartiles(xb)
    fa = f"{qa[1]:.4g} ({qa[0]:.4g}-{qa[2]:.4g})"
    fb = f"{qb[1]:.4g} ({qb[0]:.4g}-{qb[2]:.4g})"
    print(f"{k:<22}{fa:>34}{fb:>34}{won:>7}/{len(pairs)}")
EOF
