#!/usr/bin/env bash
# Runs every mutant under test/mutants/ and requires a test to kill it.
#
# A mutant is test/mutants/NAME.patch: a small unified diff against the
# tree that breaks one thing a test claims to check.  Its header, above
# the diff, names the test executable that must fail on it:
#
#   Mutant: what the change breaks
#   Test: test_router_network
#   Case: the case expected to fail
#
# The script copies the tracked tree to a temporary directory and runs
# each named executable there once unmutated, which must pass.  Then,
# for each patch, it applies the patch, builds only the named
# executable, runs it and reverts the patch.  The mutant is killed when
# the executable exits non-zero.  The script exits 1 when a mutant
# survives, no longer applies or no longer builds.
#
# Usage: scripts/mutants.sh      (run from anywhere in the repo)

set -eu

cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$work"
# a repository of its own, so that `git apply` patches the copy
git init -q "$work"

field() { sed -n "s/^$1: *//p" "$2" | head -n 1; }

build() { dune build --root "$work" "./test/$1.exe" > "$work/build.log" 2>&1; }

# the executable's status, run where `dune runtest` runs it
run() {
  (cd "$work/_build/default/test" && timeout 600 "./$1.exe") > "$work/run.log" 2>&1
}

mapfile -t patches < <(find test/mutants -name '*.patch' | sort)

for exe in $(for p in "${patches[@]}"; do field Test "$p"; done | sort -u); do
  if ! build "$exe" || ! run "$exe"; then
    tail -n 20 "$work/build.log" "$work/run.log" >&2
    echo "error: $exe fails on the unmutated tree" >&2
    exit 1
  fi
done

killed=0
bad=0
for patch in "${patches[@]}"; do
  name=$(basename "$patch" .patch)
  exe=$(field Test "$patch")
  if ! git -C "$work" apply "$PWD/$patch" 2> "$work/apply.log"; then
    echo "stale     $name: the patch no longer applies"
    cat "$work/apply.log"
    bad=$((bad + 1))
    continue
  fi
  if ! build "$exe"; then
    echo "broken    $name: the mutant does not build"
    tail -n 20 "$work/build.log"
    bad=$((bad + 1))
  elif run "$exe"; then
    echo "SURVIVED  $name: $exe passes ($(field Mutant "$patch"))"
    bad=$((bad + 1))
  else
    echo "killed    $name by $exe"
    killed=$((killed + 1))
  fi
  git -C "$work" apply -R "$PWD/$patch"
done

echo "mutants: ${#patches[@]}, killed $killed, not killed $bad"
[ "$bad" -eq 0 ]
