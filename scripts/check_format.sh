#!/usr/bin/env bash
# Format check over the repo's C++ sources. With clang-format installed it
# runs a dry run with the repo's .clang-format and exits nonzero, printing
# the offending files, if any file would be reformatted. Without it, it
# checks the one rule that needs no formatter, the 88-column limit, and
# exits nonzero, printing each longer line. Columns are counted in
# characters, not bytes (GNU grep in a UTF-8 locale), since comments use
# UTF-8 such as "—".
set -euo pipefail

cd "$(dirname "$0")/.."

mapfile -t files < <(find src tests bench examples -name '*.hpp' -o -name '*.cpp' | sort)

if ! command -v clang-format >/dev/null 2>&1; then
  echo "check_format: clang-format not found; checking the 88-column limit only"
  if LC_ALL=C.UTF-8 grep -nE '^.{89,}' "${files[@]}"; then
    echo "check_format: the lines above exceed 88 columns"
    exit 1
  fi
  echo "check_format: ${#files[@]} files within 88 columns"
  exit 0
fi

status=0
for f in "${files[@]}"; do
  if ! clang-format --dry-run --Werror "$f" >/dev/null 2>&1; then
    echo "needs formatting: $f"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_format: ${#files[@]} files clean"
fi
exit "$status"
