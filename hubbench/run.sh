#!/usr/bin/env bash
# One benchmark run against a served hub built from this checkout:
#
#   bash hubbench/run.sh --workload browse|contribute|archive \
#       --seed <n> --seconds <s> --trace 0|1
#
# Builds the release `gitcite` binary and the benchmark (both into
# $CARGO_TARGET_DIR, default `target`), then runs the benchmark. Build
# output goes to stderr; the last line of stdout is the JSON result.
#
# The benchmark's work directory `.hubbench` (the hubs' data
# directories) is a tmpfs mounted in a private mount namespace, so it
# is gone when the run ends and set-up times the hub's object writes
# rather than the journal of a shared disk. Where a private mount is not
# allowed the run goes ahead on the disk and says so on stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates/gitcite-cli ]; then
    echo "hubbench: $(pwd) is not a checkout of the repository" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p gitcite-cli --bin gitcite >&2
cargo build --release --offline --quiet --manifest-path hubbench/Cargo.toml >&2
run=("$CARGO_TARGET_DIR/release/hubbench" --gitcite "$CARGO_TARGET_DIR/release/gitcite" "$@")
mkdir -p .hubbench
if unshare --mount --propagation private true 2>/dev/null; then
    exec unshare --mount --propagation private sh -c '
        mount -t tmpfs -o size=1g,mode=0700 hubbench .hubbench ||
            echo "hubbench: no tmpfs at .hubbench; data directories on disk" >&2
        exec "$@"' hubbench "${run[@]}"
fi
echo "hubbench: no private mount namespace; data directories on disk" >&2
exec "${run[@]}"
