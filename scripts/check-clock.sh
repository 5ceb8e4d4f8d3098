#!/bin/sh
# Wall-clock lint: every duration in lib/, bin/ and bench/ reads the
# monotonic Ogc_obs.Clock.  Unix.gettimeofday may only be read where a
# wall timestamp is the point: a log line's "ts", a flight record's
# f_ts, and the entropy of router-minted trace ids.  Any other read
# fails, so a duration cannot drift back onto the wall clock.
set -u
cd "$(dirname "$0")/.." || exit 2

bad=$(git grep --untracked -n 'Unix\.gettimeofday' -- lib bin bench |
  grep -v -E \
    -e '^lib/obs/log\.ml:[0-9]+: *\(\("ts", J\.Float \(Unix\.gettimeofday \(\)\)\)$' \
    -e '^lib/(server/server|fleet/router)\.ml:[0-9]+: *f_ts = Unix\.gettimeofday \(\)( *\})?;?$' \
    -e '^lib/fleet/router\.ml:[0-9]+: *let entropy = Unix\.gettimeofday \(\) in$')

if [ -n "$bad" ]; then
  echo "check-clock: durations must read Ogc_obs.Clock, not the wall clock:"
  echo "$bad"
  exit 1
fi
echo "check-clock: only wall timestamps read Unix.gettimeofday"
