#!/usr/bin/env bash
# Runs the mutation ledger, `mutants.txt` at the repository root: for each
# entry, runs only the entry's test on a scratch copy of the tree, replaces
# the entry's fragment, runs the test again and restores the file. Every
# test must pass unmutated and fail with its mutant in place.
#
# Usage: scripts/mutants.sh [SCRATCH_DIR]
#
# The copy is made under SCRATCH_DIR (a new temporary directory when none is
# given) and built there, in `CARGO_TARGET_DIR` when it is set. The script
# exits non-zero when a mutant survives (its test passes), when a test fails
# unmutated, when a mutated tree does not compile, or when a fragment is
# missing from its file or occurs more than once. Each entry's cargo output
# goes to SCRATCH_DIR/logs/NAME.log, and its tail is printed whenever the
# entry is not killed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
work=${1:-$(mktemp -d)}
copy="$work/tree"
logs="$work/logs"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"

rm -rf "$copy" "$logs"
mkdir -p "$copy" "$logs"
(cd "$root" && git ls-files -z --cached --others --exclude-standard | tar --null -T - -cf -) |
  tar -xf - -C "$copy"

failed=0
declare -A entry=()

# Prints the tail of log $1 to stderr.
show() {
  echo "--- last 40 lines of $1:" >&2
  tail -n 40 "$1" >&2
}

# `\n` in a value stands for a newline.
unescape() { printf '%s' "${1//\\n/$'\n'}"; }

run_entry() {
  local name=${entry[name]:-} file=${entry[file]:-} test=${entry[test]:-}
  if [[ -z $name || -z $file || -z $test || ! -v entry[find] || ! -v entry[replace] ]]; then
    echo "mutants.txt: an entry lacks one of name, file, find, replace, test" >&2
    failed=1
    return
  fi
  local find replace path="$copy/$file" content rest count
  find=$(unescape "${entry[find]}")
  replace=$(unescape "${entry[replace]}")
  if [[ -z $find || ! -f $path ]]; then
    echo "$name: MISSING ($file or its fragment)" >&2
    failed=1
    return
  fi
  # Read the file whole, trailing newlines included.
  content=$(cat "$path" && printf x)
  content=${content%x}
  rest=${content//"$find"/}
  count=$(((${#content} - ${#rest}) / ${#find}))
  if ((count != 1)); then
    echo "$name: the fragment occurs $count times in $file, not once" >&2
    failed=1
    return
  fi
  local start=$SECONDS verdict log="$logs/$name.log"
  # The test must pass unmutated, or its failure would prove nothing.
  # shellcheck disable=SC2086 # `test` is a list of cargo arguments.
  if ! (cd "$copy" && cargo test --offline --locked -q $test) >"$log" 2>&1; then
    echo "$name: $test FAILS UNMUTATED" >&2
    show "$log"
    failed=1
    return
  fi
  printf '%s' "${content/"$find"/"$replace"}" >"$path"
  # shellcheck disable=SC2086
  if ! (cd "$copy" && cargo test --offline --locked -q $test --no-run) >"$log" 2>&1; then
    verdict="DOES NOT COMPILE"
    show "$log"
    failed=1
  elif (cd "$copy" && cargo test --offline --locked -q $test) >"$log" 2>&1; then
    verdict="SURVIVED ($test passed)"
    show "$log"
    failed=1
  else
    verdict="killed by $test"
  fi
  printf '%s' "$content" >"$path"
  echo "$name: $verdict [$((SECONDS - start)) s]"
}

# Build the unmutated copy once, so each mutant rebuilds only what it touches.
if ! (cd "$copy" && cargo test --offline --locked -q --workspace --no-run) >"$logs/build.log" 2>&1; then
  echo "the unmutated tree does not build" >&2
  show "$logs/build.log"
  exit 1
fi

while IFS= read -r line || [[ -n $line ]]; do
  if [[ -z $line ]]; then
    if ((${#entry[@]} > 0)); then
      run_entry
      entry=()
    fi
    continue
  fi
  [[ $line == '#'* ]] && continue
  key=${line%%:*}
  value=${line#*:}
  entry[$key]=${value# }
done <"$root/mutants.txt"
if ((${#entry[@]} > 0)); then
  run_entry
fi

if ((failed)); then
  echo "the mutation ledger failed" >&2
  exit 1
fi
echo "every mutant was killed"
