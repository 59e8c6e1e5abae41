#!/usr/bin/env bash
# Kill-and-resume smoke test for csj_tool's checkpointed join.
#
# Drives the *real binary* through the failure modes the in-process tests
# cannot reach: a graceful SIGTERM (final checkpoint, exit 3) and a hard
# SIGKILL (no chance to react; only the periodic checkpoints survive), both
# serial and with `--threads 2` (round-boundary checkpoints), for binary and
# text output. After each, `--resume 1` must finish the join and the output
# must be byte-identical to an uninterrupted run with the same thread count
# and format. Usage:
#
#   checkpoint_resume_smoke.sh /path/to/csj_tool
set -u

TOOL=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/csj_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

JOIN_ARGS=(join --algo csj --eps 0.012 --points pts.txt
           --checkpoint-interval 2)
BIN=("${JOIN_ARGS[@]}" --output-format binary)
TXT=("${JOIN_ARGS[@]}" --output-format text)

fail() { echo "FAIL: $*" >&2; exit 1; }

"$TOOL" generate --kind clusters --n 40000 --out pts.txt --seed 11 \
  >/dev/null || fail "generate"

"$TOOL" "${BIN[@]}" --out ref.bin >/dev/null || fail "reference run"
[ -e ref.bin.ckpt ] && fail "manifest survived a completed run"

# Interrupts a backgrounded join (its arguments after $3) with $1
# (TERM|KILL) once the output file shows progress, then asserts on the
# tool's exit code. Retries in case the run finishes before the signal lands
# (slow machines, fast disks).
interrupt_with() {
  local sig=$1 out=$2 want_code=$3 attempt
  shift 3
  for attempt in 1 2 3 4 5; do
    rm -f "$out" "$out.ckpt"
    "$TOOL" "$@" --out "$out" >/dev/null 2>&1 &
    local pid=$!
    # Wait until the join has demonstrably started writing AND committed a
    # first checkpoint — a SIGKILL before any manifest exists has nothing to
    # resume from, by design.
    for _ in $(seq 200); do
      [ -s "$out" ] && [ -e "$out.ckpt" ] && break
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.01
    done
    kill "-$sig" "$pid" 2>/dev/null
    wait "$pid"
    local code=$?
    if [ "$code" -eq "$want_code" ] && [ -e "$out.ckpt" ]; then
      return 0
    fi
    if [ "$code" -eq 0 ]; then
      echo "note: run finished before SIG$sig landed; retrying" >&2
      continue
    fi
    fail "SIG$sig run: exit=$code (want $want_code), manifest $( [ -e "$out.ckpt" ] && echo present || echo missing )"
  done
  echo "SKIP: could not interrupt a run with SIG$sig after 5 attempts" >&2
  exit 0
}

# --- Graceful SIGTERM: final checkpoint, distinct exit code -----------------
interrupt_with TERM term.bin 3 "${BIN[@]}"
"$TOOL" "${BIN[@]}" --out term.bin --resume 1 >/dev/null \
  || fail "resume after SIGTERM"
cmp -s ref.bin term.bin || fail "SIGTERM-resumed output differs from reference"
[ -e term.bin.ckpt ] && fail "manifest survived the resumed run"

# --- Hard SIGKILL: crash recovery from the last periodic checkpoint ---------
# 128+9: the shell reports a SIGKILLed child as exit 137.
interrupt_with KILL kill.bin 137 "${BIN[@]}"
"$TOOL" "${BIN[@]}" --out kill.bin --resume 1 >/dev/null \
  || fail "resume after SIGKILL"
cmp -s ref.bin kill.bin || fail "SIGKILL-resumed output differs from reference"

# --- Parallel rounds: SIGKILL, then resume with the same thread count -------
"$TOOL" "${BIN[@]}" --threads 2 --out ref2.bin >/dev/null \
  || fail "threaded reference run"
interrupt_with KILL kill2.bin 137 "${BIN[@]}" --threads 2
"$TOOL" "${BIN[@]}" --threads 2 --out kill2.bin --resume 1 >/dev/null \
  || fail "threaded resume after SIGKILL"
cmp -s ref2.bin kill2.bin \
  || fail "threaded SIGKILL-resumed output differs from the threaded reference"
[ -e kill2.bin.ckpt ] && fail "manifest survived the threaded resumed run"

# --- Text output: SIGKILL then resume, serial and threaded ------------------
# The text sink stages records into blocks; a checkpoint flushes the stage
# before its fsync, so the committed offset is a record boundary.
for threads in 1 2; do
  "$TOOL" "${TXT[@]}" --threads "$threads" --out "ref_t$threads.txt" \
    >/dev/null || fail "text reference run (threads $threads)"
  interrupt_with KILL "kill_t$threads.txt" 137 "${TXT[@]}" --threads "$threads"
  "$TOOL" "${TXT[@]}" --threads "$threads" --out "kill_t$threads.txt" \
    --resume 1 >/dev/null \
    || fail "text resume after SIGKILL (threads $threads)"
  cmp -s "ref_t$threads.txt" "kill_t$threads.txt" \
    || fail "text SIGKILL-resumed output differs (threads $threads)"
  [ -e "kill_t$threads.txt.ckpt" ] \
    && fail "manifest survived the text resumed run (threads $threads)"
done

# --- Deadline: exit 4, then resume to the same bytes ------------------------
rm -f dl.bin dl.bin.ckpt
"$TOOL" "${BIN[@]}" --out dl.bin --deadline-ms 80 >/dev/null 2>&1
code=$?
if [ "$code" -eq 4 ]; then
  "$TOOL" "${BIN[@]}" --out dl.bin --resume 1 >/dev/null \
    || fail "resume after deadline"
  cmp -s ref.bin dl.bin || fail "deadline-resumed output differs"
elif [ "$code" -ne 0 ]; then
  fail "deadline run: unexpected exit $code"
fi

echo "OK: SIGTERM, SIGKILL (serial and threaded, binary and text) and deadline interruptions all resumed byte-identically"
