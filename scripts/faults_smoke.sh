#!/bin/sh
# Fault-model smoke: for every built-in fault model, run the CLI
# analysis serially and with 4 domains and require byte-identical
# reports; run the default model against an explicit --fault-model
# bitflip and require byte identity (the "default model is the old
# behaviour" acceptance check); and run the default model on the boxed
# oracle engine (FF_ENGINE=boxed) against the unboxed engine and
# require byte identity. FF_ENGINE selects the engine of both the
# replays and the sensitivity samples, so step 3 covers both. Also
# available as a dune alias:
# dune build @faults-smoke
set -eu

fail() {
  echo "faults_smoke.sh: $1" >&2
  exit 1
}

if [ -x bin/fastflip_cli.exe ]; then
  # Invoked by the dune rule: deps are staged in the action directory.
  FASTFLIP=bin/fastflip_cli.exe
else
  # Invoked by hand from a checkout.
  cd "$(dirname "$0")/.."
  dune build bin/fastflip_cli.exe
  FASTFLIP=_build/default/bin/fastflip_cli.exe
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

ARGS="analyze examples/pipeline.ff --samples 40"

# 1. Every model must be deterministic across domain counts.
for model in bitflip bitflip:4 skip opcode memflip memflip:2; do
  tag=$(echo "$model" | tr ':' '_')
  $FASTFLIP $ARGS --fault-model "$model" -j 1 >"$WORK/$tag.j1" 2>/dev/null \
    || fail "model $model failed at -j 1"
  $FASTFLIP $ARGS --fault-model "$model" -j 4 >"$WORK/$tag.j4" 2>/dev/null \
    || fail "model $model failed at -j 4"
  diff -u "$WORK/$tag.j1" "$WORK/$tag.j4" >&2 \
    || fail "model $model diverges between -j 1 and -j 4"
done

# 2. The default model must be byte-identical to an explicit bitflip —
#    i.e. the pluggable subsystem changed nothing for existing users.
$FASTFLIP $ARGS -j 2 >"$WORK/default.out" 2>/dev/null \
  || fail "default-model run failed"
diff -u "$WORK/default.out" "$WORK/bitflip.j1" >&2 \
  || fail "default model is not byte-identical to --fault-model bitflip"

# 3. The boxed oracle must agree with the unboxed engine under the
#    non-register models too (skip exercises the Oskip path, opcode the
#    re-dispatch path, memflip the entry-state path). The sensitivity
#    estimates, and so the report's K values and "work" line, come from
#    the same engine.
for model in bitflip skip opcode memflip; do
  tag=$(echo "$model" | tr ':' '_')
  FF_ENGINE=boxed $FASTFLIP $ARGS --fault-model "$model" -j 2 \
    >"$WORK/$tag.boxed" 2>/dev/null || fail "model $model failed on boxed engine"
  diff -u "$WORK/$tag.boxed" "$WORK/$tag.j1" >&2 \
    || fail "model $model diverges between boxed and unboxed engines"
done

# 4. Distinct models must actually do different things (guards against a
#    silently-ignored flag): site masses differ between models.
if cmp -s "$WORK/bitflip.j1" "$WORK/skip.j1"; then
  fail "skip model produced the same report as bitflip (flag ignored?)"
fi

echo "faults smoke: OK (6 models deterministic across -j, engines agree, default == bitflip)"
