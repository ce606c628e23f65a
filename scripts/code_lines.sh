#!/usr/bin/env bash
# Counts the code lines of source files: every line that is neither
# blank nor a `//` comment alone. Prints one "<count> <path>" line per
# file, then the total.
#
# Usage (from anywhere inside the repository):
#   scripts/code_lines.sh [--rev REV] PATH...
#
# With --rev, each file is read as it was at git revision REV; a file
# that does not exist at REV counts 0 lines. Paths are relative to the
# repository root.

set -euo pipefail

usage() {
  echo "usage: $0 [--rev REV] PATH..." >&2
  exit 2
}

rev=""
if [ "${1:-}" = "--rev" ]; then
  [ $# -ge 2 ] || usage
  rev=$2
  shift 2
fi
[ $# -ge 1 ] || usage
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
if [ -n "$rev" ]; then
  git rev-parse --verify --quiet "${rev}^{commit}" > /dev/null ||
      { echo "$0: unknown revision ${rev}" >&2; exit 2; }
fi

count() {
  # grep -c prints 0 and exits 1 when nothing matches.
  grep -cvE '^\s*(//.*)?$' || true
}

total=0
for path in "$@"; do
  if [ -n "$rev" ]; then
    if git cat-file -e "${rev}:${path}" 2> /dev/null; then
      n=$(git show "${rev}:${path}" | count)
    else
      n=0
    fi
  elif [ -f "$path" ]; then
    n=$(count < "$path")
  else
    n=0
  fi
  printf '%6d %s\n' "$n" "$path"
  total=$((total + n))
done
printf '%6d total\n' "$total"
