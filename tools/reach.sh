#!/usr/bin/env bash
# Lists the internal/ functions that no binary links: every main (cmd/,
# examples/, benchmarks/ragbench) is built with inlining off, so each
# called function keeps its own symbol, and every function declared in a
# non-test internal/ file that appears in none of the binaries is printed
# as "symbol<TAB>lines<TAB>file:line", followed by the count. Tests do not
# count as callers: a function only a test reaches is listed. Generic
# instantiations fold onto their declared name. The listing gates nothing.
#
# Run from the repository root: bash tools/reach.sh (or make reach).
set -euo pipefail
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
mkdir -p "$out/bin"
go build -gcflags=all=-l -o "$out/bin/" ./cmd/... ./examples/... ./benchmarks/ragbench
for b in "$out"/bin/*; do go tool nm "$b"; done |
  sed -nE 's/^ *[0-9a-f]+ [Tt] //p' |
  sed -E 's/\[.*\]//; s/\.func[0-9.]+$//; s/\.(gowrap|deferwrap)[0-9]+$//' | sort -u >"$out/linked"
for f in $(ls internal/*/*.go | grep -v _test.go); do
  pkg="repro/$(dirname "$f")"
  awk -v pkg="$pkg" -v file="$f" '
    /^func / {
      start = NR; line = $0
      if (match(line, /^func \([a-zA-Z_0-9]* ?\*?[A-Za-z_0-9]+(\[[^]]*\])?\) [A-Za-z_0-9]+/)) {
        s = substr(line, 6, RLENGTH - 5)
        recv = s; sub(/\).*/, "", recv); sub(/^\(/, "", recv); sub(/\[.*/, "", recv)
        n = split(recv, parts, " "); t = parts[n]; sub(/\[.*/, "", t)
        name = s; sub(/^.*\) /, "", name)
        if (t ~ /^\*/) sym = pkg ".(" t ")." name; else sym = pkg "." t "." name
      } else {
        name = line; sub(/^func /, "", name); sub(/[\[(].*/, "", name)
        sym = pkg "." name
      }
      if (line ~ /}$/) { print sym "\t1\t" file ":" start; next }
      open = 1; next
    }
    open && /^}/ { print sym "\t" (NR - start + 1) "\t" file ":" start; open = 0 }
  ' "$f"
done | sort >"$out/declared"
awk -F'\t' 'NR == FNR {linked[$1] = 1; next}
  !($1 in linked) && $1 !~ /\.init$/ {print; n++; lines += $2}
  END {printf "%d functions, %d lines\n", n, lines}' "$out/linked" "$out/declared"
