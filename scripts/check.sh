#!/usr/bin/env bash
# Repo check: normal build + full test suite, then ThreadSanitizer and
# AddressSanitizer builds running the concurrency-sensitive suites
# (fabric, async pipeline, notifications, sharded fan-out). Run from the
# repo root:
#
#   scripts/check.sh
#
# Env:
#   JOBS       parallel build jobs (default: nproc)
#   SKIP_TSAN  set to 1 to skip the ThreadSanitizer pass
#   SKIP_ASAN  set to 1 to skip the AddressSanitizer pass
#   SKIP_UBSAN set to 1 to skip the UndefinedBehaviorSanitizer pass
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

SANITIZER_TARGETS=(common_test fabric_test fabric_edge_test async_client_test
  notification_test sharded_map_test obs_test cache_test txn_test
  txn_serializability_test write_behind_test far_queue_test
  windowed_test telemetry_test route_test route_equivalence_test
  congestion_test admission_test far_map_test ht_tree_test blob_store_test
  refreshable_test cached_vector_test monitoring_test core_simple_test
  failure_injection_test alloc_test)
SANITIZER_FILTER='FlatMap|SubscriptionTable|Fabric|AsyncClient|Notif|ShardedMap|Obs|Trace|OpLabel|NearCache|ClockRing|Cache|Txn|Serializ|WriteBehind|FarQueueWatch|Telemetry|Windowed|Snapshotter|GaugeGroup|Ewma|LogHistogramWindow|RecorderWindowed|Route|RpcPath|ServiceQueue|Congestion|Admission|FarMap|MapOptions|HtTree|BlobStore|Refreshable|CachedVector|Monitoring|FarBarrier|FarCounter|FarMutex|FarVector|FailureInjection|FarQueueTest|Alloc'

echo "==> normal build"
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"

echo "==> full test suite"
ctest --test-dir build --output-on-failure

if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
  echo "==> TSan pass skipped (SKIP_TSAN=1)"
else
  echo "==> TSan build"
  cmake -B build-tsan -S . -DFMDS_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "${JOBS}" --target "${SANITIZER_TARGETS[@]}"

  echo "==> TSan: fabric + async + notification + sharding tests"
  ctest --test-dir build-tsan --output-on-failure -R "${SANITIZER_FILTER}"
fi

if [[ "${SKIP_ASAN:-0}" == "1" ]]; then
  echo "==> ASan pass skipped (SKIP_ASAN=1)"
else
  echo "==> ASan build"
  cmake -B build-asan -S . -DFMDS_SANITIZE=address >/dev/null
  cmake --build build-asan -j "${JOBS}" --target "${SANITIZER_TARGETS[@]}"

  echo "==> ASan: fabric + async + notification + sharding tests"
  ctest --test-dir build-asan --output-on-failure -R "${SANITIZER_FILTER}"
fi

if [[ "${SKIP_UBSAN:-0}" == "1" ]]; then
  echo "==> UBSan pass skipped (SKIP_UBSAN=1)"
else
  echo "==> UBSan build"
  cmake -B build-ubsan -S . -DFMDS_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "${JOBS}" --target "${SANITIZER_TARGETS[@]}"

  echo "==> UBSan: fabric + async + notification + sharding + obs tests"
  ctest --test-dir build-ubsan --output-on-failure -R "${SANITIZER_FILTER}"
fi

echo "==> all checks passed"
