#!/bin/sh
# Line counts the ROADMAP tracks ("net line count of crates/ is a
# tracked quantity"): total .rs lines under crates/ and benchmark/, the
# non-test part of crates/ (per file, the lines above its first
# `#[cfg(test)]`; a file without one counts whole), and the same split
# for the five largest files.
#
# Usage: ./scripts/loc.sh   (from anywhere; POSIX sh, find, awk, sort)
set -e
cd "$(dirname "$0")/.."

# Prints "<non-test lines> <total lines> <path>" for each .rs file under $1.
per_file() {
  find "$1" -name '*.rs' -not -path '*/target/*' | sort | while read -r f; do
    awk -v f="$f" '
      !cut && /^[ \t]*#\[cfg\(test\)\]/ { cut = NR - 1 }
      END { print (cut ? cut : NR), NR, f }' "$f"
  done
}

for dir in crates benchmark; do
  per_file "$dir" | awk -v d="$dir" '
    { code += $1; all += $2; n++ }
    END { printf "%-10s %6d lines in %3d .rs files, %6d above #[cfg(test)]\n", d "/", all, n, code }'
done

echo "five largest files (total lines, lines above #[cfg(test)]):"
{ per_file crates; per_file benchmark; } | sort -k2,2nr | head -n 5 |
  awk '{ printf "  %6d %6d  %s\n", $2, $1, $3 }'
