#!/usr/bin/env bash
# Lists every `val` exported by lib/**/*.mli whose name appears in no .ml
# file of lib/, bin/, perfbench/ or examples/ other than its own module's,
# and fails when there are more of them than CEILING.
#
# Callers in test/ do not count.  The match is by name, so it is rough:
# a common name used anywhere else (e.g. `create`) hides an unused export.
#
# Usage: scripts/unused_exports.sh      (run from anywhere in the repo)

# no pipefail: the status of `grep -q` alone decides, whatever the
# producer upstream of it gets (SIGPIPE once -q has seen a match)
set -eu

# The count after the last interface audit.  Lower it when an unused
# export goes; never raise it to admit a new one.
CEILING=97

cd "$(dirname "$0")/.."

count=0
while IFS= read -r mli; do
  own="${mli%.mli}.ml"
  for name in $(grep -oE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$mli" \
                | awk '{print $2}' | sort -u); do
    if ! grep -rlw --include='*.ml' -- "$name" lib bin perfbench examples \
         | grep -qvxF -- "$own"; then
      echo "$mli: $name"
      count=$((count + 1))
    fi
  done
done < <(find lib -name '*.mli' | sort)

echo "unused exports: $count (ceiling $CEILING)"
if [ "$count" -gt "$CEILING" ]; then
  echo "error: $((count - CEILING)) more than the ceiling; delete the value or hide it in its .mli" >&2
  exit 1
fi
