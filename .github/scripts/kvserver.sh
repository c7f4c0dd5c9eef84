# Sourced by the CI smoke steps (". .github/scripts/kvserver.sh").
#
# start_kvserver LOG [kvserver flags...] boots /tmp/kvserver in the
# background on a kernel-assigned loopback port, logging to LOG, waits
# up to 5s for its "listening on" line (the last line kvserver logs
# while booting, after any WAL replay), and sets:
#
#   srv   the server's PID (a child of the calling shell, so `wait` works)
#   addr  the address it listens on, host:port
#
# It fails (under set -e, the step fails) when no address shows up.
start_kvserver() {
  log=$1
  shift
  /tmp/kvserver -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
  srv=$!
  for i in $(seq 1 50); do
    grep -q 'listening on ' "$log" && break
    sleep 0.1
  done
  addr=$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$log" | head -n1)
  test -n "$addr"
}
