#!/usr/bin/env bash
# Non-test Rust lines per crate, and a cap on any one source file.
#
# A file's non-test lines are those above its inline `#[cfg(test)] mod … {`;
# a `tests.rs` (declared `#[cfg(test)] mod tests;` by its parent) has none.
# Prints a Markdown table (to $GITHUB_STEP_SUMMARY when set, else stdout),
# one row per crate, a **total** row and an **options** row (the `pub`
# fields of every `pub struct *Config` / `*Options` above a file's test
# module: structs, then fields), and fails if any file under crates/*/src is
# longer than the cap, tests included — a file that size wants splitting
# whatever is in it.
#
# Usage: src_lines.sh [line-cap] [options-cap]. With an options cap it also
# fails when the options row's field count goes above it, so a new config
# field raises the cap in the same diff.
set -euo pipefail
cap=${1:-1600}
options_cap=${2:-}
out=${GITHUB_STEP_SUMMARY:-/dev/stdout}
fail=0 all_files=0 all_total=0 all_structs=0 all_fields=0
{
  echo "| crate | files | non-test lines | largest file | lines |"
  echo "|---|---:|---:|---|---:|"
} >> "$out"
for dir in crates/*/src; do
  files=0 total=0 largest="" largest_lines=0
  while IFS= read -r f; do
    lines=$(wc -l < "$f")
    if [ "$(basename "$f")" = tests.rs ]; then
      code=0
    else
      code=$(awk 'prev ~ /^#\[cfg\(test\)\]/ && /^mod [a-z_]+ \{/ { print NR - 2; done = 1; exit }
                  { prev = $0 } END { if (!done) print NR }' "$f")
      read -r structs fields < <(head -n "$code" "$f" | awk '
        /^pub struct [A-Za-z0-9_]*(Config|Options) \{/ { inside = 1; structs++; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z0-9_]+:/ { fields++ }
        END { print structs + 0, fields + 0 }')
      all_structs=$((all_structs + structs)) all_fields=$((all_fields + fields))
    fi
    files=$((files + 1)) total=$((total + code))
    if [ "$lines" -gt "$largest_lines" ]; then largest=$f largest_lines=$lines; fi
    if [ "$lines" -gt "$cap" ]; then
      echo "::error file=$f::$lines lines, over the $cap-line cap: split it by concern"
      fail=1
    fi
  done < <(find "$dir" -name '*.rs' | sort)
  echo "| $(basename "$(dirname "$dir")") | $files | $total | ${largest#"$dir"/} | $largest_lines |" >> "$out"
  all_files=$((all_files + files)) all_total=$((all_total + total))
done
echo "| **total** | $all_files | $all_total | | |" >> "$out"
echo "| **options** | $all_structs | $all_fields | | |" >> "$out"
if [ -n "$options_cap" ] && [ "$all_fields" -gt "$options_cap" ]; then
  echo "::error::$all_fields config fields, over the $options_cap-field cap: raise it in the same diff"
  fail=1
fi
exit $fail
